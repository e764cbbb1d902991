#include "analysis/analyze.hh"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "channel/channel_registry.hh"
#include "exp/parallel.hh"
#include "gadgets/gadget_registry.hh"
#include "obs/log.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

enum class TargetKind
{
    Gadget,
    Channel,
    Program,
};

struct Task
{
    TargetKind kind;
    std::string name;
};

/** Every analyzable name, for suggestions and prefix resolution. */
std::vector<std::pair<TargetKind, std::string>>
allTargets()
{
    std::vector<std::pair<TargetKind, std::string>> out;
    for (const GadgetInfo *info : GadgetRegistry::instance().all())
        out.emplace_back(TargetKind::Gadget, info->name);
    for (const ChannelInfo *info : ChannelRegistry::instance().all())
        out.emplace_back(TargetKind::Channel, info->name);
    for (const ProgramTarget &target : programTargets())
        out.emplace_back(TargetKind::Program, target.name);
    return out;
}

/**
 * Resolve one CLI name against gadgets, channels, and demo programs:
 * exact match first, then unique prefix, with an edit-distance
 * suggestion on failure — the same contract as the registries' own
 * resolve(), but spanning all three namespaces at once.
 */
Task
resolveTarget(const std::string &name)
{
    const auto universe = allTargets();
    std::vector<const std::pair<TargetKind, std::string> *> prefix;
    for (const auto &entry : universe) {
        if (entry.second == name)
            return {entry.first, entry.second};
        if (entry.second.rfind(name, 0) == 0)
            prefix.push_back(&entry);
    }
    if (prefix.size() == 1)
        return {prefix.front()->first, prefix.front()->second};
    if (prefix.size() > 1) {
        std::string choices;
        for (const auto *entry : prefix)
            choices += (choices.empty() ? "" : ", ") + entry->second;
        fatal("analyze: '" + name + "' is ambiguous (" + choices + ")");
    }
    std::vector<std::string> names;
    for (const auto &entry : universe)
        names.push_back(entry.second);
    const std::string suggestion = closestMatch(name, names);
    fatal("analyze: unknown target '" + name + "'" +
          (suggestion.empty()
               ? ""
               : " (did you mean '" + suggestion + "'?)") +
          "; see `hr_bench gadgets`, `channels`, or the demo programs "
          "in `analyze --list-programs`");
}

LeakageReport
runTask(const Task &task, const AnalyzeOptions &options)
{
    try {
        switch (task.kind) {
          case TargetKind::Gadget:
            return analyzeGadget(task.name, options.profile, options.params,
                                 options.validate);
          case TargetKind::Channel:
            return analyzeChannel(task.name, options.profile,
                                  options.params, options.validate);
          case TargetKind::Program:
            return analyzeProgramTarget(*findProgramTarget(task.name),
                                        options.profile, options.validate);
        }
    } catch (const std::exception &e) {
        LeakageReport report;
        report.target = task.name;
        report.profile = options.profile;
        report.status = std::string("error: ") + e.what();
        return report;
    }
    return {};
}

CapacityReport
runCapacityTask(const Task &task, const AnalyzeOptions &options)
{
    try {
        switch (task.kind) {
          case TargetKind::Gadget:
            return analyzeGadgetCapacity(task.name, options.profile,
                                         options.params);
          case TargetKind::Channel:
            return analyzeChannelCapacity(task.name, options.profile,
                                          options.params);
          case TargetKind::Program:
            return analyzeProgramCapacity(
                *findProgramTarget(task.name), options.profile);
        }
    } catch (const std::exception &e) {
        CapacityReport report;
        report.target = task.name;
        report.profile = options.profile;
        report.status = std::string("error: ") + e.what();
        return report;
    }
    return {};
}

/** The resolved, registry-ordered task list for one invocation. */
std::vector<Task>
resolveTasks(const AnalyzeOptions &options)
{
    std::vector<Task> tasks;
    if (options.all) {
        for (const auto &[kind, name] : allTargets())
            tasks.push_back({kind, name});
    } else {
        fatalIf(options.targets.empty(),
                "analyze: name at least one gadget/channel/program "
                "(or --all)");
        for (const std::string &name : options.targets)
            tasks.push_back(resolveTarget(name));
    }
    return tasks;
}

/**
 * Per-index result slots: output order is the task order regardless
 * of --jobs, and every task builds its own machines/pool, so workers
 * share nothing mutable.
 */
template <typename Report, typename Run>
std::vector<Report>
runTasks(const std::vector<Task> &tasks, int jobs, Run run)
{
    std::vector<Report> reports(tasks.size());
    parallelFor(static_cast<int>(tasks.size()), jobs, [&](int i) {
        reports[static_cast<std::size_t>(i)] =
            run(tasks[static_cast<std::size_t>(i)]);
    });
    return reports;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names)
        out += (out.empty() ? "" : ",") + name;
    return out;
}

std::string
validationCell(const ValidationResult &v)
{
    if (!v.ran)
        return "-";
    return v.passed ? "pass" : "FAIL";
}

} // namespace

std::vector<LeakageReport>
runAnalysis(const AnalyzeOptions &options)
{
    return runTasks<LeakageReport>(
        resolveTasks(options), options.jobs,
        [&](const Task &task) { return runTask(task, options); });
}

std::vector<CapacityReport>
runCapacityAnalysis(const AnalyzeOptions &options)
{
    return runTasks<CapacityReport>(
        resolveTasks(options), options.jobs,
        [&](const Task &task) { return runCapacityTask(task, options); });
}

void
printReportTable(std::ostream &os,
                 const std::vector<LeakageReport> &reports)
{
    Table table({"target", "kind", "profile", "status", "leakage",
                 "validated", "predicted observers"});
    for (const LeakageReport &report : reports)
        table.addRow({report.target, report.kind, report.profile,
                      report.status,
                      report.status == "ok" ? report.leakClass : "-",
                      validationCell(report.validation),
                      joinNames(report.observers)});
    os << table.render();

    // Findings and validation failures do not fit table cells; print
    // them as trailing annotations like the scenario check lines.
    for (const LeakageReport &report : reports) {
        for (const TaintFinding &finding : report.taintFindings)
            os << "  " << report.target << ": pc " << finding.pc << " "
               << leakKindName(finding.kind) << ": " << finding.detail
               << "\n";
        for (const std::string &failure : report.validation.failures)
            os << "  " << report.target
               << ": validation FAIL: " << failure << "\n";
    }
}

void
printReportJson(std::ostream &os,
                const std::vector<LeakageReport> &reports)
{
    os << "[\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const LeakageReport &r = reports[i];
        os << "  {\n";
        os << "    \"target\": " << jsonQuote(r.target) << ",\n";
        os << "    \"kind\": " << jsonQuote(r.kind) << ",\n";
        if (!r.gadget.empty())
            os << "    \"gadget\": " << jsonQuote(r.gadget) << ",\n";
        os << "    \"profile\": " << jsonQuote(r.profile) << ",\n";
        os << "    \"status\": " << jsonQuote(r.status) << ",\n";
        os << "    \"leak_class\": " << jsonQuote(r.leakClass) << ",\n";
        os << "    \"constant_time\": "
           << (r.constantTime ? "true" : "false") << ",\n";
        os << "    \"opaque\": " << (r.opaque ? "true" : "false")
           << ",\n";
        os << "    \"est_cycle_delta\": " << jsonNum(r.diff.estCycleDelta)
           << ",\n";
        os << "    \"observers\": [";
        for (std::size_t j = 0; j < r.observers.size(); ++j)
            os << (j ? ", " : "") << jsonQuote(r.observers[j]);
        os << "],\n";
        os << "    \"taint_findings\": [";
        for (std::size_t j = 0; j < r.taintFindings.size(); ++j) {
            const TaintFinding &finding = r.taintFindings[j];
            os << (j ? ", " : "") << "{\"pc\": " << finding.pc
               << ", \"kind\": "
               << jsonQuote(leakKindName(finding.kind))
               << ", \"detail\": " << jsonQuote(finding.detail) << "}";
        }
        os << "],\n";
        os << "    \"footprint\": [";
        for (int p = 0; p < 2; ++p) {
            const CacheFootprint &fp = r.footprint[p];
            os << (p ? ", " : "") << "{\"lines\": " << fp.lines.size()
               << ", \"transient_lines\": " << fp.transientLines.size()
               << ", \"mem_ops\": " << fp.memOps
               << ", \"predicted_fills\": " << fp.predictedFills
               << ", \"fills_exact\": "
               << (fp.fillsExact ? "true" : "false")
               << ", \"accesses_exact\": "
               << (fp.accessesExact ? "true" : "false") << "}";
        }
        os << "],\n";
        os << "    \"validation\": {\"ran\": "
           << (r.validation.ran ? "true" : "false") << ", \"passed\": "
           << (r.validation.passed ? "true" : "false")
           << ", \"failures\": [";
        for (std::size_t j = 0; j < r.validation.failures.size(); ++j)
            os << (j ? ", " : "")
               << jsonQuote(r.validation.failures[j]);
        os << "]},\n";
        os << "    \"detail\": " << jsonQuote(r.detail) << "\n";
        os << "  }" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

namespace
{

/** One bits cell: one decimal, "*" when the partition was widened. */
std::string
bitsCell(double bits, bool exact)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << bits;
    if (!exact)
        os << '*';
    return os.str();
}

} // namespace

void
printCapacityTable(std::ostream &os,
                   const std::vector<CapacityReport> &reports)
{
    Table table({"target", "kind", "profile", "status", "vals",
                 "cap_bound", "l1_fill_set", "probe_sequence",
                 "fu_timing", "transient", "best surface"});
    for (const CapacityReport &report : reports) {
        std::vector<std::string> row = {report.target, report.kind,
                                        report.profile, report.status};
        if (report.status == "ok") {
            row.push_back(std::to_string(report.bound.valuations));
            row.push_back(bitsCell(report.bound.bits,
                                   report.bound.exact));
            for (const FamilyBound &fb : report.bound.families)
                row.push_back(bitsCell(fb.bits, fb.exact));
            row.push_back(report.bound.bestFamily);
        } else {
            while (row.size() < 11)
                row.push_back("-");
        }
        table.addRow(row);
    }
    os << table.render();
}

void
printCapacityJson(std::ostream &os,
                  const std::vector<CapacityReport> &reports)
{
    os << "[\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const CapacityReport &r = reports[i];
        os << "  {\n";
        os << "    \"target\": " << jsonQuote(r.target) << ",\n";
        os << "    \"kind\": " << jsonQuote(r.kind) << ",\n";
        if (!r.gadget.empty())
            os << "    \"gadget\": " << jsonQuote(r.gadget) << ",\n";
        os << "    \"profile\": " << jsonQuote(r.profile) << ",\n";
        os << "    \"status\": " << jsonQuote(r.status) << ",\n";
        os << "    \"opaque\": " << (r.opaque ? "true" : "false")
           << ",\n";
        os << "    \"valuations\": [";
        for (std::size_t j = 0; j < r.valuationLabels.size(); ++j)
            os << (j ? ", " : "") << jsonQuote(r.valuationLabels[j]);
        os << "],\n";
        os << "    \"cap_bound_bits\": " << jsonNum(r.bound.bits)
           << ",\n";
        os << "    \"joint_classes\": " << r.bound.jointClasses
           << ",\n";
        os << "    \"exact\": " << (r.bound.exact ? "true" : "false")
           << ",\n";
        os << "    \"best_family\": " << jsonQuote(r.bound.bestFamily)
           << ",\n";
        os << "    \"families\": [";
        for (std::size_t j = 0; j < r.bound.families.size(); ++j) {
            const FamilyBound &fb = r.bound.families[j];
            os << (j ? ", " : "") << "{\"family\": "
               << jsonQuote(observerFamilyName(fb.family))
               << ", \"classes\": " << fb.classes
               << ", \"widened\": " << fb.widened
               << ", \"bits\": " << jsonNum(fb.bits) << ", \"exact\": "
               << (fb.exact ? "true" : "false") << "}";
        }
        os << "],\n";
        os << "    \"detail\": " << jsonQuote(r.detail) << "\n";
        os << "  }" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

} // namespace hr

/**
 * @file
 * Driver for `hr_bench analyze`: resolves target names (gadgets,
 * channels, annotated demo programs), runs the static analyzer —
 * optionally cross-validated on pooled machines — across a worker
 * pool, and renders the reports as an aligned table or JSON.
 *
 * Determinism contract: the report list depends only on the target
 * set and profile, never on --jobs. Each target is analyzed on
 * machines of its own (a MachinePool per profile it tries), so
 * workers share no mutable state, and results land
 * in per-index slots joined in registry order.
 */

#ifndef HR_ANALYSIS_ANALYZE_HH
#define HR_ANALYSIS_ANALYZE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/capacity.hh"
#include "analysis/leakage.hh"

namespace hr
{

/** Options for one analyze invocation (CLI or tests). */
struct AnalyzeOptions
{
    /** Gadget/channel/program names; resolved with suggestions. */
    std::vector<std::string> targets;
    bool all = false;       ///< every gadget + channel + demo program
    std::string profile;    ///< empty = first profile a target builds on
    int jobs = 1;
    bool validate = true;   ///< cross-validate on pooled machines
    bool capacity = false;  ///< QIF capacity bounds instead of classes
    ParamSet params;        ///< forwarded to GadgetRegistry::make
};

/** Run the analyzer over the resolved target set. Fatal (throws) on
 * an unknown target name, with a closestMatch suggestion. */
std::vector<LeakageReport> runAnalysis(const AnalyzeOptions &options);

/**
 * Run the capacity engine (capacity.hh) over the resolved target set
 * instead of the leak classifier — same resolution, ordering, and
 * --jobs determinism contract as runAnalysis; `validate` is ignored
 * (capacity bounds are checked against measurement by the
 * fig_capacity_bound_vs_measured scenario, not per-run validation).
 */
std::vector<CapacityReport>
runCapacityAnalysis(const AnalyzeOptions &options);

/** Aligned human-readable table of reports. */
void printReportTable(std::ostream &os,
                      const std::vector<LeakageReport> &reports);

/** Machine-readable JSON array of reports. */
void printReportJson(std::ostream &os,
                     const std::vector<LeakageReport> &reports);

/** Aligned capacity table: joint bound + per-family bits columns. */
void printCapacityTable(std::ostream &os,
                        const std::vector<CapacityReport> &reports);

/** Machine-readable JSON array of capacity reports. */
void printCapacityJson(std::ostream &os,
                       const std::vector<CapacityReport> &reports);

} // namespace hr

#endif // HR_ANALYSIS_ANALYZE_HH

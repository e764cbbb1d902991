/**
 * @file
 * hr_bench: the unified experiment driver.
 *
 *   hr_bench list [--format=table|json|csv]
 *   hr_bench profiles
 *   hr_bench gadgets [--format=table|json|csv]
 *   hr_bench channels [--format=table|json|csv]
 *   hr_bench run <scenario>... [--trials=N] [--jobs=N] [--seed=S]
 *                              [--format=table|json|csv]
 *                              [--profile=NAME] [--param key=value]
 *   hr_bench run --all
 *   hr_bench sweep --gadget=NAME | --channel=NAME
 *                  [--profile=NAME] [--grid key=v1,v2]...
 *                  [--trials=N] [--jobs=N] [--seed=S] [--format=F]
 *                  [--param key=value]
 *   hr_bench analyze <gadget|channel|program>... | --all
 *                    [--capacity] [--profile=NAME] [--jobs=N]
 *                    [--no-validate] [--param key=value]
 *                    [--format=table|json]
 *   hr_bench analyze --list-programs
 *   hr_bench trace <scenario>... [--trace=FILE] [run options]
 *   hr_bench metrics [<scenario>...] [--logical] [run options]
 *
 * Observability (see src/obs/): `--trace=FILE` records a Chrome
 * trace-event / Perfetto JSON flight recording on run, sweep,
 * analyze, trace, and metrics; `--progress=stderr|FILE` streams
 * JSON-lines run telemetry; `--log-level=L` (or HR_LOG_LEVEL) gates
 * stderr diagnostics. All of it is off by default and the default
 * outputs stay byte-identical.
 *
 * Scenario names resolve by exact match or unique prefix (`run fig04`),
 * and gadget/channel names likewise (`sweep --gadget=arith`). Exit
 * status is 0 iff every executed scenario's checks passed, so the
 * driver composes with CI exactly like the former standalone benches;
 * listing commands exit nonzero when their registry is empty (a build
 * that silently dropped the registrations must not look healthy).
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <iostream>
#include <sstream>

#include "analysis/analyze.hh"
#include "channel/channel_registry.hh"
#include "exp/registry.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "gadgets/gadget_registry.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "sim/profiles.hh"

namespace
{

using namespace hr;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: hr_bench <command> [options]\n"
        "\n"
        "commands:\n"
        "  list                 list registered scenarios\n"
        "  profiles             list named machine profiles\n"
        "  gadgets              list registered timing-source gadgets\n"
        "  channels             list registered covert-channel stacks\n"
        "  run <scenario>...    run scenarios (exact name or unique "
        "prefix)\n"
        "  run --all            run every registered scenario\n"
        "  sweep --gadget=NAME  sweep a gadget over a parameter grid\n"
        "  sweep --channel=NAME sweep a covert channel over a grid\n"
        "  analyze <target>...  static leakage analysis of gadgets, "
        "channels, or demo programs\n"
        "  analyze --all        analyze every gadget, channel, and "
        "demo program\n"
        "  trace <scenario>...  run scenarios with the flight "
        "recorder on (trace.json unless --trace=FILE)\n"
        "  metrics [scenario].. run scenarios (if named), then print "
        "the metrics snapshot\n"
        "\n"
        "observability options (any command):\n"
        "  --trace=FILE         record a Chrome/Perfetto trace of "
        "this run to FILE (run/sweep/analyze/trace/metrics)\n"
        "  --progress=DEST      stream JSON-lines progress telemetry "
        "to `stderr` or a file\n"
        "  --log-level=L        error, warn, info (default), or "
        "debug; also env HR_LOG_LEVEL\n"
        "  --logical            metrics: print only the logical "
        "(jobs-invariant) metric class\n"
        "\n"
        "run options:\n"
        "  --trials=N           override the scenario's sample count\n"
        "  --jobs=N             worker threads for trial fan-out "
        "(default 1)\n"
        "  --seed=S             RNG base seed (default 1)\n"
        "  --format=F           table (default), json, or csv\n"
        "  --profile=NAME       override the scenario's machine profile\n"
        "  --param key=value    scenario-specific parameter "
        "(repeatable)\n"
        "  --no-lockstep        disable periodic-loop forwarding in "
        "the core (same output, slower)\n"
        "\n"
        "sweep options (plus the run options above):\n"
        "  --gadget=NAME        gadget to sweep (see `gadgets`)\n"
        "  --channel=NAME       covert channel to sweep (see "
        "`channels`)\n"
        "  --profile=NAME       machine profile (default `default`)\n"
        "  --grid key=v1,v2     grid axis; also key=lo:hi[:step] "
        "(repeatable, cartesian)\n"
        "  --trials=N           samples per polarity (gadget) or "
        "transmissions (channel) per grid point (default 4)\n"
        "  --param key=value    fixed gadget/channel parameter "
        "(repeatable)\n"
        "\n"
        "analyze options:\n"
        "  --capacity           QIF capacity bounds (bits/trial) "
        "instead of leak classes\n"
        "  --profile=NAME       machine profile (default: first "
        "compatible of default/plru/smt2/smt2_plru)\n"
        "  --jobs=N             analyze targets in parallel (output "
        "is identical at any N)\n"
        "  --no-validate        skip the dynamic cross-validation "
        "runs\n"
        "  --param key=value    gadget/channel parameter "
        "(repeatable)\n"
        "  --format=F           table (default) or json\n"
        "  --list-programs      list the built-in annotated demo "
        "programs\n");
}

/** Parsed command line. */
struct Cli
{
    std::vector<std::string> positional;
    RunOptions options;
    bool run_all = false;
    std::string gadget;
    std::string channel;
    std::vector<std::string> grid_args;
    bool trials_given = false;
    bool validate = true;
    bool capacity = false;
    bool list_programs = false;
    std::string trace_file;    ///< --trace=FILE (empty = no tracing)
    std::string progress_dest; ///< --progress=stderr|FILE
    std::string log_level;     ///< --log-level=NAME
    bool logical = false;      ///< metrics: logical class only
    std::vector<std::string> seen; ///< flag names given, for rejectStray

    static Cli
    parse(int argc, char **argv)
    {
        Cli cli;
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            // Accept --flag=value and --flag value; anything else that
            // merely shares a prefix with a known flag is rejected.
            auto matches = [&](const std::string &flag) {
                return arg == "--" + flag ||
                       arg.rfind("--" + flag + "=", 0) == 0;
            };
            auto value = [&](const std::string &flag) {
                const std::string prefix = "--" + flag + "=";
                if (arg.rfind(prefix, 0) == 0)
                    return arg.substr(prefix.size());
                fatalIf(++i >= argc, "--" + flag + " needs a value");
                return std::string(argv[i]);
            };
            auto integer = [&](const std::string &flag) {
                const std::string text = value(flag);
                const std::optional<long long> v = parseInteger(text);
                fatalIf(!v, "--" + flag + ": '" + text +
                                "' is not an integer");
                return *v;
            };
            auto intFlag = [&](const std::string &flag) {
                const long long v = integer(flag);
                fatalIf(v < std::numeric_limits<int>::min() ||
                            v > std::numeric_limits<int>::max(),
                        "--" + flag + ": " + std::to_string(v) +
                            " is out of range");
                return static_cast<int>(v);
            };
            if (arg == "--all") {
                cli.run_all = true;
                cli.seen.push_back("all");
            } else if (arg == "--no-lockstep") {
                cli.options.lockstep = false;
                cli.seen.push_back("no-lockstep");
            } else if (arg == "--no-validate") {
                cli.validate = false;
                cli.seen.push_back("no-validate");
            } else if (arg == "--capacity") {
                cli.capacity = true;
                cli.seen.push_back("capacity");
            } else if (arg == "--list-programs") {
                cli.list_programs = true;
                cli.seen.push_back("list-programs");
            } else if (matches("trials")) {
                cli.options.trials = intFlag("trials");
                cli.trials_given = true;
                cli.seen.push_back("trials");
            } else if (matches("gadget")) {
                cli.gadget = value("gadget");
                cli.seen.push_back("gadget");
            } else if (matches("channel")) {
                cli.channel = value("channel");
                cli.seen.push_back("channel");
            } else if (matches("grid")) {
                cli.grid_args.push_back(value("grid"));
                cli.seen.push_back("grid");
            } else if (matches("jobs")) {
                cli.options.jobs = intFlag("jobs");
                cli.seen.push_back("jobs");
            } else if (matches("seed")) {
                cli.options.seed =
                    static_cast<std::uint64_t>(integer("seed"));
                cli.seen.push_back("seed");
            } else if (matches("format")) {
                cli.options.format = formatFromName(value("format"));
                cli.seen.push_back("format");
            } else if (matches("profile")) {
                cli.options.profile = value("profile");
                cli.seen.push_back("profile");
            } else if (matches("param")) {
                cli.options.params.setFromArg(value("param"));
                cli.seen.push_back("param");
            } else if (matches("trace")) {
                cli.trace_file = value("trace");
                fatalIf(cli.trace_file.empty(),
                        "--trace needs a file name");
                cli.seen.push_back("trace");
            } else if (matches("progress")) {
                cli.progress_dest = value("progress");
                fatalIf(cli.progress_dest.empty(),
                        "--progress needs `stderr` or a file name");
                cli.seen.push_back("progress");
            } else if (matches("log-level")) {
                cli.log_level = value("log-level");
                cli.seen.push_back("log-level");
            } else if (arg == "--logical") {
                cli.logical = true;
                cli.seen.push_back("logical");
            } else if (arg.rfind("--", 0) == 0) {
                fatal("unknown option '" + arg + "'");
            } else {
                cli.positional.push_back(arg);
            }
        }
        return cli;
    }
};

/**
 * An empty registry on a listing command means the registrations were
 * dead-stripped or the build is otherwise broken — exit nonzero so CI
 * smoke steps can tell that apart from a healthy listing.
 */
int
emptyRegistry(const char *what)
{
    std::fprintf(stderr, "hr_bench: no %s registered\n", what);
    return 1;
}

/** Print a listing in --format; a table ends "COUNT WHAT registered". */
int
printListing(const Cli &cli, const Table &table, const char *what = nullptr,
             std::size_t count = 0)
{
    if (cli.options.format != Format::Table) {
        std::fputs((cli.options.format == Format::Json ? table.renderJson()
                                                       : table.renderCsv())
                       .c_str(),
                   stdout);
    } else {
        table.print();
        if (what)
            std::printf("\n%zu %s registered\n", count, what);
    }
    return 0;
}

int
cmdList(const Cli &cli)
{
    const auto scenarios = ScenarioRegistry::instance().all();
    if (scenarios.empty())
        return emptyRegistry("scenarios");
    if (cli.options.format == Format::Table) {
        Table table({"scenario", "profile", "trials", "title"});
        for (Scenario *scenario : scenarios)
            table.addRow({scenario->name(), scenario->defaultProfile(),
                          Table::integer(scenario->defaultTrials()),
                          scenario->title()});
        return printListing(cli, table, "scenarios", scenarios.size());
    }
    Table table({"scenario", "profile", "trials", "title", "paper_claim"});
    for (Scenario *scenario : scenarios)
        table.addRow({scenario->name(), scenario->defaultProfile(),
                      Table::integer(scenario->defaultTrials()),
                      scenario->title(), scenario->paperClaim()});
    return printListing(cli, table);
}

int
cmdProfiles(const Cli &cli)
{
    // Sorted by name, like `list` and `gadgets`, so output order is
    // stable however the profile table is maintained.
    std::vector<const MachineProfile *> sorted;
    for (const MachineProfile &profile : machineProfiles())
        sorted.push_back(&profile);
    std::sort(sorted.begin(), sorted.end(),
              [](const MachineProfile *a, const MachineProfile *b) {
                  return a->name < b->name;
              });
    Table table({"profile", "description"});
    for (const MachineProfile *profile : sorted)
        table.addRow({profile->name, profile->description});
    return printListing(cli, table);
}

/** Reject operands/flags a subcommand would otherwise ignore. */
void
rejectStray(const Cli &cli, const std::string &command)
{
    if (command != "run" && command != "analyze" &&
        command != "trace" && command != "metrics" &&
        !cli.positional.empty())
        fatal(command + ": unexpected operand '" +
              cli.positional.front() + "'");
    // --log-level applies everywhere; it only gates stderr diagnostics.
    std::vector<std::string> allowed = {"format", "log-level"};
    if (command == "analyze") {
        allowed.insert(allowed.end(), {"all", "jobs", "profile", "param",
                                       "no-validate", "capacity",
                                       "list-programs", "trace",
                                       "progress"});
    } else if (command == "run" || command == "trace" ||
               command == "metrics") {
        allowed.insert(allowed.end(), {"all", "trials", "jobs", "seed",
                                       "profile", "param", "no-lockstep",
                                       "trace", "progress"});
        if (command == "metrics")
            allowed.push_back("logical");
    } else if (command == "sweep") {
        allowed.insert(allowed.end(), {"gadget", "channel", "grid",
                                       "trials", "jobs", "seed",
                                       "profile", "param", "no-lockstep",
                                       "trace", "progress"});
    }
    for (const std::string &flag : cli.seen) {
        bool ok = false;
        for (const std::string &name : allowed)
            ok |= name == flag;
        fatalIf(!ok, command + ": --" + flag +
                         " does not apply to this command");
    }
}

int
cmdGadgets(const Cli &cli)
{
    const auto gadgets = GadgetRegistry::instance().all();
    if (gadgets.empty())
        return emptyRegistry("gadgets");
    Table table({"gadget", "kind", "leakage", "cap_bound", "parameters",
                 "description"});
    for (const GadgetInfo *gadget : gadgets)
        table.addRow({gadget->name, gadget->kind,
                      leakageClassFor(gadget->name),
                      capacityBoundFor(gadget->name),
                      keyList(gadget->params), gadget->description});
    return printListing(cli, table, "gadgets", gadgets.size());
}

int
cmdChannels(const Cli &cli)
{
    const auto channels = ChannelRegistry::instance().all();
    if (channels.empty())
        return emptyRegistry("channels");
    Table table({"channel", "gadget", "mod", "leakage", "cap_bound",
                 "parameters", "description"});
    for (const ChannelInfo *channel : channels)
        table.addRow({channel->name, channel->gadget,
                      channel->modulation,
                      leakageClassFor(channel->gadget),
                      capacityBoundFor(channel->gadget),
                      keyList(channel->params), channel->description});
    return printListing(cli, table, "channels", channels.size());
}

int
cmdSweep(const Cli &cli)
{
    fatalIf(cli.gadget.empty() && cli.channel.empty(),
            "sweep: --gadget=NAME or --channel=NAME is required "
            "(see `hr_bench gadgets` / `hr_bench channels`)");
    fatalIf(!cli.gadget.empty() && !cli.channel.empty(),
            "sweep: --gadget and --channel are mutually exclusive");
    SweepOptions options;
    options.gadget = cli.gadget;
    options.channel = cli.channel;
    if (!cli.options.profile.empty())
        options.profile = cli.options.profile;
    if (cli.trials_given)
        options.trials = cli.options.trials;
    options.jobs = cli.options.jobs;
    options.seed = cli.options.seed;
    options.params = cli.options.params;
    options.lockstep = cli.options.lockstep;
    for (const std::string &arg : cli.grid_args)
        options.grid.push_back(parseSweepAxis(arg));
    ResultTable result = options.channel.empty()
                             ? runSweep(options)
                             : runChannelSweep(options);
    std::fputs(result.render(cli.options.format).c_str(), stdout);
    return result.passed() ? 0 : 1;
}

int
cmdAnalyze(const Cli &cli)
{
    if (cli.list_programs) {
        Table table({"program", "description"});
        for (const ProgramTarget &target : programTargets())
            table.addRow({target.name, target.description});
        return printListing(cli, table);
    }

    AnalyzeOptions options;
    options.targets = cli.positional;
    options.all = cli.run_all;
    options.profile = cli.options.profile;
    options.jobs = cli.options.jobs;
    options.validate = cli.validate;
    options.capacity = cli.capacity;
    options.params = cli.options.params;

    if (options.capacity) {
        const std::vector<CapacityReport> reports =
            runCapacityAnalysis(options);
        std::ostringstream out;
        if (cli.options.format == Format::Json)
            printCapacityJson(out, reports);
        else if (cli.options.format == Format::Table)
            printCapacityTable(out, reports);
        else
            fatal("analyze: --format must be table or json");
        std::fputs(out.str().c_str(), stdout);
        bool ok = true;
        for (const CapacityReport &report : reports)
            ok &= report.status.rfind("error:", 0) != 0;
        return ok ? 0 : 1;
    }

    const std::vector<LeakageReport> reports = runAnalysis(options);
    std::ostringstream out;
    if (cli.options.format == Format::Json)
        printReportJson(out, reports);
    else if (cli.options.format == Format::Table)
        printReportTable(out, reports);
    else
        fatal("analyze: --format must be table or json");
    std::fputs(out.str().c_str(), stdout);

    // incompatible/calib_fail are verdicts, not failures; only real
    // analysis errors and cross-validation mismatches fail the run.
    bool ok = true;
    for (const LeakageReport &report : reports) {
        ok &= report.status.rfind("error:", 0) != 0;
        ok &= !report.validation.ran || report.validation.passed;
    }
    return ok ? 0 : 1;
}

/**
 * The scenarios named on the command line (or --all), with --param
 * checked against the union of their declarations (Scenario::params)
 * before any of them runs.
 */
std::vector<Scenario *>
scheduledScenarios(const Cli &cli)
{
    std::vector<Scenario *> selected;
    if (cli.run_all)
        selected = ScenarioRegistry::instance().all();
    else
        for (const std::string &name : cli.positional)
            selected.push_back(&ScenarioRegistry::instance().resolve(name));
    ParamSchema schema;
    for (const Scenario *scenario : selected)
        schema = mergeKeys(schema, scenario->params());
    cli.options.params.check(schema, "--param");
    return selected;
}

int
cmdRun(Cli cli)
{
    fatalIf(!cli.run_all && cli.positional.empty(),
            "run: name at least one scenario (or --all)");
    const std::vector<Scenario *> selected = scheduledScenarios(cli);
    const bool table_mode = cli.options.format == Format::Table;

    ExperimentRunner runner(cli.options);
    bool all_passed = true;
    bool first = true;
    for (Scenario *scenario : selected) {
        if (!first && table_mode)
            std::printf("\n");
        first = false;
        ResultTable result = runner.run(*scenario);
        std::fputs(result.render(cli.options.format).c_str(), stdout);
        if (table_mode)
            HR_LOG(info, "[%s: %.2f s wall, %d jobs]\n",
                   scenario->name().c_str(), runner.lastWallSeconds(),
                   cli.options.jobs);
        all_passed &= result.passed();
    }
    return all_passed ? 0 : 1;
}

/**
 * `hr_bench metrics [scenario]...`: optionally run scenarios (their
 * rendered results are suppressed — this command's stdout is the
 * metrics snapshot only), then print the registry, name-sorted.
 * --logical restricts to the jobs-invariant metric class, which is
 * what CI diffs across --jobs values.
 */
int
cmdMetrics(const Cli &cli)
{
    const std::vector<Scenario *> selected = scheduledScenarios(cli);
    bool all_passed = true;
    ExperimentRunner runner(cli.options);
    for (Scenario *scenario : selected) {
        HR_LOG(info, "  .. %s\n", scenario->name().c_str());
        all_passed &= runner.run(*scenario).passed();
    }

    const std::vector<MetricSample> rows =
        metrics().snapshot(cli.logical);
    if (cli.options.format == Format::Table) {
        Table table({"metric", "kind", "class", "value", "sum"});
        for (const MetricSample &row : rows)
            table.addRow({row.name, row.kind,
                          row.logical ? "logical" : "runtime",
                          Table::integer(
                              static_cast<long long>(row.value)),
                          row.kind == "histogram"
                              ? Table::integer(
                                    static_cast<long long>(row.sum))
                              : std::string("-")});
        table.print();
    } else {
        std::fputs((renderMetricsJson(rows) + "\n").c_str(), stdout);
    }
    return all_passed ? 0 : 1;
}

/**
 * Dispatch one subcommand. Split out of main() so observability
 * teardown (flushing --trace output) runs on every exit path,
 * including failed scenario checks.
 */
int
runCommand(const std::string &command, const Cli &cli)
{
    if (command == "list")
        return cmdList(cli);
    if (command == "profiles")
        return cmdProfiles(cli);
    if (command == "gadgets")
        return cmdGadgets(cli);
    if (command == "channels")
        return cmdChannels(cli);
    if (command == "sweep")
        return cmdSweep(cli);
    if (command == "analyze")
        return cmdAnalyze(cli);
    if (command == "run" || command == "trace")
        return cmdRun(cli);
    if (command == "metrics")
        return cmdMetrics(cli);
    if (command == "help" || command == "--help" || command == "-h") {
        usage();
        return 0;
    }
    fatal("unknown command '" + command + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string command = argv[1];
    try {
        const Cli cli = Cli::parse(argc, argv);
        rejectStray(cli, command);

        if (!cli.log_level.empty())
            setLogLevel(logLevelFromName(cli.log_level));
        if (!cli.progress_dest.empty())
            ProgressSink::instance().configure(cli.progress_dest);

        // `trace <scenario>` is `run` with the flight recorder on;
        // --trace=FILE turns it on for any workload command.
        const bool tracing =
            command == "trace" || !cli.trace_file.empty();
        const std::string trace_out =
            cli.trace_file.empty() ? "trace.json" : cli.trace_file;
        if (tracing)
            TraceRecorder::enable();

        const int rc = runCommand(command, cli);

        // Export even when checks failed: a trace of the failing run
        // is exactly what the flag was for. Workers have joined by
        // now, so the ring snapshot is complete and race-free.
        if (tracing) {
            TraceRecorder::disable();
            TraceRecorder::writeChromeTrace(trace_out);
            HR_LOG(info, "[trace written to %s]\n", trace_out.c_str());
        }
        return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hr_bench: %s\n", e.what());
        return 2;
    }
}

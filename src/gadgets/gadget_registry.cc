#include "gadgets/gadget_registry.hh"

#include <algorithm>

#include "gadgets/arbitrary_magnifier.hh"
#include "gadgets/arith_magnifier.hh"
#include "gadgets/hacky_timer.hh"
#include "gadgets/pipeline.hh"
#include "gadgets/plru_magnifier.hh"
#include "gadgets/plru_pattern.hh"
#include "gadgets/racing.hh"
#include "gadgets/repetition.hh"
#include "gadgets/timers.hh"
#include "obs/log.hh"

namespace hr
{
namespace
{

using Factory = std::function<std::unique_ptr<TimingSource>(
    Machine &, const ParamSet &)>;

/** Parse an opcode parameter ("add", "mul", "div", "lea", "sub"). */
Opcode
opcodeParam(const ParamSet &params, const std::string &key, Opcode def)
{
    const std::string v = params.get(key, "");
    if (v.empty())
        return def;
    if (v == "add")
        return Opcode::Add;
    if (v == "sub")
        return Opcode::Sub;
    if (v == "mul")
        return Opcode::Mul;
    if (v == "div")
        return Opcode::Div;
    if (v == "lea")
        return Opcode::Lea;
    fatal("parameter " + key + ": unknown opcode '" + v +
          "' (use add, sub, mul, div, or lea)");
}

int
intParam(const ParamSet &params, const std::string &key, int def)
{
    return static_cast<int>(params.getInt(key, def));
}

/**
 * A count parameter: fatal, naming the key, below @p min — a count
 * that cannot produce an observation (no rounds, a negative chain)
 * must not run and report a number.
 */
int
countParam(const ParamSet &params, const std::string &key, int def,
           int min)
{
    const long long value = params.getInt(key, def);
    fatalIf(value < min, key + " must be >= " + std::to_string(min) +
                             " (got " + std::to_string(value) + ")");
    return static_cast<int>(value);
}

const CacheConfig &
l1Config(const Machine &machine)
{
    return machine.hierarchy().l1().config();
}

/** True iff the machine has the paper's 4-way tree-PLRU L1. */
bool
hasPlruL1(const Machine &machine)
{
    return l1Config(machine).assoc == 4 &&
           l1Config(machine).policy == PolicyKind::TreePlru;
}

/** Split a comma-separated key list. */
std::vector<std::string>
splitKeys(const std::string &list)
{
    std::vector<std::string> keys;
    std::size_t start = 0;
    while (start <= list.size()) {
        const auto comma = list.find(',', start);
        const std::string key = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!key.empty())
            keys.push_back(key);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return keys;
}

/** Comma-joined union of comma-separated key lists, first-seen order. */
std::string
unionKeys(const std::vector<std::string> &lists)
{
    std::vector<std::string> keys;
    for (const std::string &list : lists)
        for (const std::string &key : splitKeys(list))
            if (std::find(keys.begin(), keys.end(), key) == keys.end())
                keys.push_back(key);
    std::string joined;
    for (const std::string &key : keys)
        joined += (joined.empty() ? "" : ",") + key;
    return joined;
}

Factory
plruMagnifier(PlruVariant variant)
{
    return [variant](Machine &machine,
                     const ParamSet &p) -> std::unique_ptr<TimingSource> {
        const int set = intParam(p, "set", 3);
        const int repeats = countParam(p, "repeats", 500, 1);
        const int tag_base = intParam(p, "tag_base", 16);
        if (!hasPlruL1(machine) || set >= l1Config(machine).numSets)
            return nullptr;
        return std::make_unique<PlruMagnifier>(
            machine,
            PlruMagnifier::makeConfig(machine, set, repeats, tag_base),
            variant);
    };
}

void
registerBuiltins(GadgetRegistry &registry)
{
    auto add = [&](std::string name, std::string kind, std::string params,
                   std::string description, Factory factory) {
        GadgetInfo info;
        info.name = std::move(name);
        info.kind = std::move(kind);
        info.params = std::move(params);
        info.description = std::move(description);
        info.factory = std::move(factory);
        registry.add(std::move(info));
    };

    add("pa_race", "encoder",
        "ref_op,ref_ops,op,slow_ops,fast_ops,train_rounds",
        "transient presence/absence racing gadget (section 5.1)",
        [](Machine &machine, const ParamSet &p) {
            PaRaceSourceConfig c;
            c.race.refOp = opcodeParam(p, "ref_op", c.race.refOp);
            c.race.refOps = countParam(p, "ref_ops", c.race.refOps, 0);
            c.targetOp = opcodeParam(p, "op", c.targetOp);
            c.slowOps = countParam(p, "slow_ops", c.slowOps, 0);
            c.fastOps = countParam(p, "fast_ops", c.fastOps, 0);
            c.race.trainRounds =
                countParam(p, "train_rounds", c.race.trainRounds, 0);
            return std::make_unique<PaRaceSource>(machine, c);
        });
    add("reorder_race", "encoder",
        "ref_op,ref_ops,op,slow_ops,fast_ops,set,tag_base,"
        "readout_repeats",
        "non-transient reorder racing gadget (section 5.2)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            ReorderRaceSourceConfig c;
            c.refOp = opcodeParam(p, "ref_op", c.refOp);
            c.refOps = countParam(p, "ref_ops", c.refOps, 0);
            c.targetOp = opcodeParam(p, "op", c.targetOp);
            c.slowOps = countParam(p, "slow_ops", c.slowOps, 0);
            c.fastOps = countParam(p, "fast_ops", c.fastOps, 0);
            c.set = intParam(p, "set", c.set);
            c.tagBase = intParam(p, "tag_base", c.tagBase);
            c.readoutRepeats =
                countParam(p, "readout_repeats", c.readoutRepeats, 1);
            // The standalone readout (and the reorder pipeline) decode
            // the order from a W=4 tree-PLRU set.
            if (!hasPlruL1(machine))
                return nullptr;
            return std::make_unique<ReorderRaceSource>(machine, c);
        });
    add("plru_pa_magnifier", "amplifier", "set,repeats,tag_base",
        "W=4 tree-PLRU magnifier, presence/absence input (section 6.1)",
        plruMagnifier(PlruVariant::PresenceAbsence));
    add("plru_reorder_magnifier", "amplifier", "set,repeats,tag_base",
        "W=4 tree-PLRU magnifier, reorder input (section 6.2)",
        plruMagnifier(PlruVariant::Reorder));
    add("plru_pin_magnifier", "amplifier", "set,repeats,tag_base,max_len",
        "search-derived tree-PLRU pin pattern, any 2^k ways (section 9)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            PinPatternMagnifierConfig c;
            c.set = intParam(p, "set", c.set);
            c.repeats = countParam(p, "repeats", c.repeats, 1);
            c.tagBase = intParam(p, "tag_base", c.tagBase);
            c.maxLen = intParam(p, "max_len", c.maxLen);
            const CacheConfig &l1 = l1Config(machine);
            if (l1.policy != PolicyKind::TreePlru || l1.assoc < 4 ||
                (l1.assoc & (l1.assoc - 1)) != 0 || c.set >= l1.numSets)
                return nullptr;
            const std::optional<PinPattern> pattern =
                findPinPattern(l1.assoc, c.maxLen);
            if (!pattern)
                return nullptr;
            return std::make_unique<PinPatternMagnifier>(machine, c,
                                                         *pattern);
        });
    add("arbitrary_magnifier", "amplifier",
        "num_sets,seq_len,par_len,dist,repeats,prefetch,chain_pad,slack",
        "replacement-policy-agnostic chain-reaction magnifier "
        "(section 6.3)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            ArbitraryMagnifierConfig c;
            c.numSets = countParam(p, "num_sets", c.numSets, 1);
            c.seqLen = countParam(p, "seq_len", c.seqLen, 1);
            c.parLen = countParam(p, "par_len", c.parLen, 1);
            c.dist = intParam(p, "dist", c.dist);
            c.repeats = countParam(p, "repeats", c.repeats, 1);
            c.prefetch = p.getBool("prefetch", c.prefetch);
            c.chainPadOps = countParam(p, "chain_pad", c.chainPadOps, 0);
            c.pathASlackOps = countParam(p, "slack", c.pathASlackOps, 0);
            const CacheConfig &l1 = l1Config(machine);
            if (c.numSets > l1.numSets || c.numSets % 2 != 0 ||
                c.dist % 2 != 0 || c.seqLen >= l1.assoc)
                return nullptr;
            return std::make_unique<ArbitraryMagnifier>(machine, c);
        });
    add("arith_magnifier", "amplifier",
        "stages,div_chain,par_divs,add_buffer",
        "arithmetic-only divider-contention magnifier (section 6.4)",
        [](Machine &machine, const ParamSet &p) {
            ArithMagnifierConfig c;
            c.stages = countParam(p, "stages", c.stages, 1);
            c.divChain = countParam(p, "div_chain", c.divChain, 1);
            c.parDivs = countParam(p, "par_divs", c.parDivs, 1);
            // 0 = auto-sized buffer.
            c.addBuffer = countParam(p, "add_buffer", c.addBuffer, 0);
            return std::make_unique<ArithMagnifier>(machine, c);
        });
    add("repetition", "composite", "rounds,racing,envelope_ops",
        "flush+reload repetition harness (section 7.1, Fig. 7)",
        [](Machine &machine, const ParamSet &p) {
            RepetitionSourceConfig c;
            c.rounds = countParam(p, "rounds", c.rounds, 1);
            c.racing = p.getBool("racing", c.racing);
            c.stages.envelopeOps =
                countParam(p, "envelope_ops", c.stages.envelopeOps, 0);
            return std::make_unique<RepetitionSource>(machine, c);
        });
    add("hacky_timer", "composite",
        "ref_op,ref_ops,repeats,set,tag_base,resolution_ns,jitter_ns",
        "the paper's composed stealthy fine-grained timer (section 7)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            HackyTimerConfig c;
            c.timer.ghz = machine.config().ghz;
            c.timer.resolutionNs =
                p.getDouble("resolution_ns", c.timer.resolutionNs);
            c.timer.jitterNs = p.getDouble("jitter_ns", c.timer.jitterNs);
            c.refOp = opcodeParam(p, "ref_op", c.refOp);
            // The registry's timer compares against a 12-op reference
            // (HackyTimerConfig's own default is 10).
            c.refOps = countParam(p, "ref_ops", 12, 0);
            // 0 = auto from the timer resolution.
            c.magnifierRepeats =
                countParam(p, "repeats", c.magnifierRepeats, 0);
            c.plruSet = intParam(p, "set", c.plruSet);
            c.plruTagBase = intParam(p, "tag_base", c.plruTagBase);
            if (!hasPlruL1(machine))
                return nullptr;
            return std::make_unique<HackyTimer>(machine, c);
        });
    add("coarse_timer", "timer",
        "resolution_ns,jitter_ns,op,slow_ops,fast_ops",
        "the bare quantized browser clock (the threat-model baseline)",
        [](Machine &machine, const ParamSet &p) {
            CoarseTimerSourceConfig c;
            c.timer.resolutionNs =
                p.getDouble("resolution_ns", c.timer.resolutionNs);
            c.timer.jitterNs = p.getDouble("jitter_ns", c.timer.jitterNs);
            c.targetOp = opcodeParam(p, "op", c.targetOp);
            c.slowOps = countParam(p, "slow_ops", c.slowOps, 0);
            c.fastOps = countParam(p, "fast_ops", c.fastOps, 0);
            return std::make_unique<CoarseTimerSource>(machine, c);
        });
    add("smt_contention", "timer",
        "op,slow_ops,fast_ops,counter_unroll",
        "SMT port-pressure timer: sibling-context counting progress as "
        "the clock (needs an smt profile)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            SmtContentionConfig c;
            c.targetOp = opcodeParam(p, "op", c.targetOp);
            c.slowOps = countParam(p, "slow_ops", c.slowOps, 0);
            c.fastOps = countParam(p, "fast_ops", c.fastOps, 0);
            c.counterUnroll =
                countParam(p, "counter_unroll", c.counterUnroll, 1);
            if (machine.contexts() < 2)
                return nullptr;
            return std::make_unique<SmtContentionTimer>(machine, c);
        });
    add("l1_contention", "timer",
        "set,evict_lines,repeats,window_ops",
        "L1 occupancy timer: sibling-context attributed misses as the "
        "clock (needs an smt profile)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            L1ContentionConfig c;
            c.set = intParam(p, "set", c.set);
            // 0 = the L1's associativity.
            c.evictLines = countParam(p, "evict_lines", c.evictLines, 0);
            c.repeats = countParam(p, "repeats", c.repeats, 1);
            c.windowOps = countParam(p, "window_ops", c.windowOps, 0);
            if (machine.contexts() < 2 ||
                c.set >= l1Config(machine).numSets)
                return nullptr;
            return std::make_unique<L1ContentionTimer>(machine, c);
        });

    // The composed stacks: the stages' own registry entries, fed the
    // pipeline's whole ParamSet, so the declared keys are the union of
    // the pipeline's and its stages'.
    auto pipeline = [&](const std::string &name, const std::string &encoder,
                        const std::string &amplifier,
                        std::string description) {
        const GadgetInfo &enc = *registry.find(encoder);
        const GadgetInfo &amp = *registry.find(amplifier);
        const std::string keys = unionKeys(
            {"rounds,resolution_ns,jitter_ns", enc.params, amp.params});
        add(name, "composite", keys, std::move(description),
            [name, make_encoder = enc.factory,
             make_amplifier = amp.factory](
                Machine &machine,
                const ParamSet &p) -> std::unique_ptr<TimingSource> {
                PipelineConfig c;
                c.rounds = countParam(p, "rounds", c.rounds, 1);
                c.timer.resolutionNs =
                    p.getDouble("resolution_ns", c.timer.resolutionNs);
                c.timer.jitterNs =
                    p.getDouble("jitter_ns", c.timer.jitterNs);
                // Span several coarse-clock ticks so a tick-boundary
                // phase cannot flip the decision (cf. HackyTimer's
                // autoRepeats sizing).
                ParamSet stage_params;
                stage_params.set("repeats", "2000");
                stage_params = stage_params.overriddenBy(p);
                auto encoder_stage = make_encoder(machine, stage_params);
                auto amplifier_stage =
                    make_amplifier(machine, stage_params);
                if (!encoder_stage || !amplifier_stage)
                    return nullptr;
                auto stack = std::make_unique<Pipeline>(machine, name, c);
                stack->then(std::move(encoder_stage))
                    .then(std::move(amplifier_stage));
                return stack;
            });
    };
    pipeline("hacky_pipeline", "pa_race", "plru_pa_magnifier",
             "Pipeline: pa_race -> plru_pa_magnifier, coarse-clock "
             "readout");
    pipeline("reorder_pipeline", "reorder_race", "plru_reorder_magnifier",
             "Pipeline: reorder_race -> plru_reorder_magnifier, "
             "coarse-clock readout");
}

} // namespace

GadgetRegistry &
GadgetRegistry::instance()
{
    static GadgetRegistry registry;
    // Builtin sources are registered by an explicit call (not static
    // initializers) so a static-archive link cannot drop them.
    static const bool builtins_registered = [] {
        registerBuiltins(registry);
        return true;
    }();
    (void)builtins_registered;
    return registry;
}

void
GadgetRegistry::add(GadgetInfo info)
{
    fatalIf(info.name.empty(), "GadgetRegistry: empty gadget name");
    fatalIf(!info.factory, "GadgetRegistry: gadget '" + info.name +
                               "' has no factory");
    fatalIf(find(info.name) != nullptr,
            "GadgetRegistry: duplicate gadget '" + info.name + "'");
    gadgets_.push_back(std::move(info));
}

const GadgetInfo *
GadgetRegistry::find(const std::string &name) const
{
    for (const GadgetInfo &gadget : gadgets_)
        if (gadget.name == name)
            return &gadget;
    return nullptr;
}

const GadgetInfo &
GadgetRegistry::resolve(const std::string &name) const
{
    if (const GadgetInfo *exact = find(name))
        return *exact;
    std::vector<const GadgetInfo *> matches;
    for (const GadgetInfo &gadget : gadgets_)
        if (gadget.name.rfind(name, 0) == 0)
            matches.push_back(&gadget);
    if (matches.size() == 1)
        return *matches.front();
    std::string known;
    std::vector<std::string> names;
    for (const GadgetInfo *gadget :
         matches.empty() ? all() : matches) {
        known += (known.empty() ? "" : ", ") + gadget->name;
        names.push_back(gadget->name);
    }
    if (matches.empty()) {
        const std::string suggestion = closestMatch(name, names);
        fatal("unknown gadget '" + name + "'" +
              (suggestion.empty()
                   ? ""
                   : " (did you mean '" + suggestion + "'?)") +
              " (known: " + known + ")");
    }
    fatal("ambiguous gadget prefix '" + name + "' (matches: " + known +
          ")");
}

std::vector<std::string>
GadgetRegistry::paramKeys(const GadgetInfo &info)
{
    return splitKeys(info.params);
}

std::unique_ptr<TimingSource>
GadgetRegistry::make(const std::string &name, Machine &machine,
                     const ParamSet &params) const
{
    const GadgetInfo &info = resolve(name);
    // Reject keys the gadget does not declare: a typo'd parameter
    // must not silently configure nothing. The error lists the valid
    // keys and suggests the nearest match.
    params.requireKeys(paramKeys(info), "gadget '" + info.name + "'");
    return info.factory(machine, params);
}

std::vector<const GadgetInfo *>
GadgetRegistry::all() const
{
    std::vector<const GadgetInfo *> out;
    out.reserve(gadgets_.size());
    for (const GadgetInfo &gadget : gadgets_)
        out.push_back(&gadget);
    std::sort(out.begin(), out.end(),
              [](const GadgetInfo *a, const GadgetInfo *b) {
                  return a->name < b->name;
              });
    return out;
}

} // namespace hr

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

/** The opcodes an `op`/`ref_op` key names (by opcodeName). */
constexpr Opcode kKeyOpcodes[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                  Opcode::Div, Opcode::Lea};

ParamSpec
opKey(std::string key)
{
    std::vector<std::string> names;
    for (Opcode op : kKeyOpcodes)
        names.push_back(opcodeName(op));
    return choiceKey(std::move(key), std::move(names));
}

/** A declared opcode parameter (opKey), or @p def when absent. */
Opcode
opcodeParam(const ParamSet &params, const std::string &key, Opcode def)
{
    for (Opcode op : kKeyOpcodes)
        if (params.get(key, "") == opcodeName(op))
            return op;
    return def;
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

Factory
plruMagnifier(PlruVariant variant)
{
    return [variant](Machine &machine,
                     const ParamSet &p) -> std::unique_ptr<TimingSource> {
        const int set = p.getInt("set", 3);
        const int repeats = p.getInt("repeats", 500);
        const int tag_base = p.getInt("tag_base", 16);
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
    auto add = [&](std::string name, std::string kind, ParamSchema params,
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
        {opKey("ref_op"), intKey("ref_ops", 0), opKey("op"),
         intKey("slow_ops", 0), intKey("fast_ops", 0),
         intKey("train_rounds", 0)},
        "transient presence/absence racing gadget (section 5.1)",
        [](Machine &machine, const ParamSet &p) {
            PaRaceSourceConfig c;
            c.race.refOp = opcodeParam(p, "ref_op", c.race.refOp);
            c.race.refOps = p.getInt("ref_ops", c.race.refOps);
            c.targetOp = opcodeParam(p, "op", c.targetOp);
            c.slowOps = p.getInt("slow_ops", c.slowOps);
            c.fastOps = p.getInt("fast_ops", c.fastOps);
            c.race.trainRounds = p.getInt("train_rounds", c.race.trainRounds);
            return std::make_unique<PaRaceSource>(machine, c);
        });
    add("reorder_race", "encoder",
        {opKey("ref_op"), intKey("ref_ops", 0), opKey("op"),
         intKey("slow_ops", 0), intKey("fast_ops", 0), intKey("set", 0),
         intKey("tag_base"), intKey("readout_repeats", 1)},
        "non-transient reorder racing gadget (section 5.2)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            ReorderRaceSourceConfig c;
            c.refOp = opcodeParam(p, "ref_op", c.refOp);
            c.refOps = p.getInt("ref_ops", c.refOps);
            c.targetOp = opcodeParam(p, "op", c.targetOp);
            c.slowOps = p.getInt("slow_ops", c.slowOps);
            c.fastOps = p.getInt("fast_ops", c.fastOps);
            c.set = p.getInt("set", c.set);
            c.tagBase = p.getInt("tag_base", c.tagBase);
            c.readoutRepeats = p.getInt("readout_repeats", c.readoutRepeats);
            // The standalone readout (and the reorder pipeline) decode
            // the order from a W=4 tree-PLRU set.
            if (!hasPlruL1(machine))
                return nullptr;
            return std::make_unique<ReorderRaceSource>(machine, c);
        });
    const ParamSchema plru_keys = {intKey("set", 0), intKey("repeats", 1),
                                   intKey("tag_base")};
    add("plru_pa_magnifier", "amplifier", plru_keys,
        "W=4 tree-PLRU magnifier, presence/absence input (section 6.1)",
        plruMagnifier(PlruVariant::PresenceAbsence));
    add("plru_reorder_magnifier", "amplifier", plru_keys,
        "W=4 tree-PLRU magnifier, reorder input (section 6.2)",
        plruMagnifier(PlruVariant::Reorder));
    add("plru_pin_magnifier", "amplifier",
        mergeKeys(plru_keys, {intKey("max_len", 1)}),
        "search-derived tree-PLRU pin pattern, any 2^k ways (section 9)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            PinPatternMagnifierConfig c;
            c.set = p.getInt("set", c.set);
            c.repeats = p.getInt("repeats", c.repeats);
            c.tagBase = p.getInt("tag_base", c.tagBase);
            c.maxLen = p.getInt("max_len", c.maxLen);
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
        {intKey("num_sets", 1), intKey("seq_len", 1), intKey("par_len", 1),
         intKey("dist"), intKey("repeats", 1), boolKey("prefetch"),
         intKey("chain_pad", 0), intKey("slack", 0)},
        "replacement-policy-agnostic chain-reaction magnifier "
        "(section 6.3)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            ArbitraryMagnifierConfig c;
            c.numSets = p.getInt("num_sets", c.numSets);
            c.seqLen = p.getInt("seq_len", c.seqLen);
            c.parLen = p.getInt("par_len", c.parLen);
            c.dist = p.getInt("dist", c.dist);
            c.repeats = p.getInt("repeats", c.repeats);
            c.prefetch = p.getBool("prefetch", c.prefetch);
            c.chainPadOps = p.getInt("chain_pad", c.chainPadOps);
            c.pathASlackOps = p.getInt("slack", c.pathASlackOps);
            const CacheConfig &l1 = l1Config(machine);
            if (c.numSets > l1.numSets || c.numSets % 2 != 0 ||
                c.dist % 2 != 0 || c.seqLen >= l1.assoc)
                return nullptr;
            return std::make_unique<ArbitraryMagnifier>(machine, c);
        });
    add("arith_magnifier", "amplifier",
        {intKey("stages", 1), intKey("div_chain", 1), intKey("par_divs", 1),
         intKey("add_buffer", 0)},
        "arithmetic-only divider-contention magnifier (section 6.4)",
        [](Machine &machine, const ParamSet &p) {
            ArithMagnifierConfig c;
            c.stages = p.getInt("stages", c.stages);
            c.divChain = p.getInt("div_chain", c.divChain);
            c.parDivs = p.getInt("par_divs", c.parDivs);
            // 0 = auto-sized buffer.
            c.addBuffer = p.getInt("add_buffer", c.addBuffer);
            return std::make_unique<ArithMagnifier>(machine, c);
        });
    add("repetition", "composite",
        {intKey("rounds", 1), boolKey("racing"), intKey("envelope_ops", 0)},
        "flush+reload repetition harness (section 7.1, Fig. 7)",
        [](Machine &machine, const ParamSet &p) {
            RepetitionSourceConfig c;
            c.rounds = p.getInt("rounds", c.rounds);
            c.racing = p.getBool("racing", c.racing);
            c.stages.envelopeOps =
                p.getInt("envelope_ops", c.stages.envelopeOps);
            return std::make_unique<RepetitionSource>(machine, c);
        });
    add("hacky_timer", "composite",
        {opKey("ref_op"), intKey("ref_ops", 0), intKey("repeats", 0),
         intKey("set", 0), intKey("tag_base"), realKey("resolution_ns", 0),
         realKey("jitter_ns", 0)},
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
            c.refOps = p.getInt("ref_ops", 12);
            // 0 = auto from the timer resolution.
            c.magnifierRepeats = p.getInt("repeats", c.magnifierRepeats);
            c.plruSet = p.getInt("set", c.plruSet);
            c.plruTagBase = p.getInt("tag_base", c.plruTagBase);
            if (!hasPlruL1(machine))
                return nullptr;
            return std::make_unique<HackyTimer>(machine, c);
        });
    add("coarse_timer", "timer",
        {realKey("resolution_ns", 0), realKey("jitter_ns", 0), opKey("op"),
         intKey("slow_ops", 0), intKey("fast_ops", 0)},
        "the bare quantized browser clock (the threat-model baseline)",
        [](Machine &machine, const ParamSet &p) {
            CoarseTimerSourceConfig c;
            c.timer.resolutionNs =
                p.getDouble("resolution_ns", c.timer.resolutionNs);
            c.timer.jitterNs = p.getDouble("jitter_ns", c.timer.jitterNs);
            c.targetOp = opcodeParam(p, "op", c.targetOp);
            c.slowOps = p.getInt("slow_ops", c.slowOps);
            c.fastOps = p.getInt("fast_ops", c.fastOps);
            return std::make_unique<CoarseTimerSource>(machine, c);
        });
    add("smt_contention", "timer",
        {opKey("op"), intKey("slow_ops", 0), intKey("fast_ops", 0),
         intKey("counter_unroll", 1)},
        "SMT port-pressure timer: sibling-context counting progress as "
        "the clock (needs an smt profile)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            SmtContentionConfig c;
            c.targetOp = opcodeParam(p, "op", c.targetOp);
            c.slowOps = p.getInt("slow_ops", c.slowOps);
            c.fastOps = p.getInt("fast_ops", c.fastOps);
            c.counterUnroll = p.getInt("counter_unroll", c.counterUnroll);
            if (machine.contexts() < 2)
                return nullptr;
            return std::make_unique<SmtContentionTimer>(machine, c);
        });
    add("l1_contention", "timer",
        {intKey("set", 0), intKey("evict_lines", 0), intKey("repeats", 1),
         intKey("window_ops", 0)},
        "L1 occupancy timer: sibling-context attributed misses as the "
        "clock (needs an smt profile)",
        [](Machine &machine,
           const ParamSet &p) -> std::unique_ptr<TimingSource> {
            L1ContentionConfig c;
            c.set = p.getInt("set", c.set);
            // 0 = the L1's associativity.
            c.evictLines = p.getInt("evict_lines", c.evictLines);
            c.repeats = p.getInt("repeats", c.repeats);
            c.windowOps = p.getInt("window_ops", c.windowOps);
            if (machine.contexts() < 2 ||
                c.set >= l1Config(machine).numSets)
                return nullptr;
            return std::make_unique<L1ContentionTimer>(machine, c);
        });

    // The composed stacks: the stages' own registry entries, fed the
    // pipeline's whole ParamSet, so the declared keys are the merge of
    // the pipeline's and its stages' (fatal if two declare a key
    // differently).
    auto pipeline = [&](const std::string &name, const std::string &encoder,
                        const std::string &amplifier,
                        std::string description) {
        const GadgetInfo &enc = *registry.find(encoder);
        const GadgetInfo &amp = *registry.find(amplifier);
        const ParamSchema own = {intKey("rounds", 1),
                                 realKey("resolution_ns", 0),
                                 realKey("jitter_ns", 0)};
        add(name, "composite",
            mergeKeys(mergeKeys(own, enc.params), amp.params),
            std::move(description),
            [name, make_encoder = enc.factory,
             make_amplifier = amp.factory](
                Machine &machine,
                const ParamSet &p) -> std::unique_ptr<TimingSource> {
                PipelineConfig c;
                c.rounds = p.getInt("rounds", c.rounds);
                c.timer.resolutionNs =
                    p.getDouble("resolution_ns", c.timer.resolutionNs);
                c.timer.jitterNs = p.getDouble("jitter_ns", c.timer.jitterNs);
                // Span several coarse-clock ticks so a tick-boundary
                // phase cannot flip the decision (cf. HackyTimer's
                // autoRepeats sizing).
                const ParamSet stage_params =
                    ParamSet{{"repeats", "2000"}}.overriddenBy(p);
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

std::unique_ptr<TimingSource>
GadgetRegistry::make(const std::string &name, Machine &machine,
                     const ParamSet &params) const
{
    const GadgetInfo &info = resolve(name);
    // Reject keys the gadget does not declare (a typo'd parameter must
    // not silently configure nothing) and values outside their
    // declared type and bounds (a count must not wrap into another).
    params.check(info.params, "gadget '" + info.name + "'");
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

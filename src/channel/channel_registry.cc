#include "channel/channel_registry.hh"

#include <algorithm>

#include "gadgets/gadget_registry.hh"
#include "obs/log.hh"
#include "sim/noise.hh"

namespace hr
{

namespace
{

/** The channel-level keys every channel declares. */
const ParamSchema &
channelKeys()
{
    static const ParamSchema keys = [] {
        std::vector<std::string> noise_names;
        for (const NoiseInfo &info : noiseWorkloads())
            noise_names.push_back(info.name);
        return ParamSchema{
            intKey("frame_bits", 1),   // payload bits per frame
            choiceKey("ecc", {"none", "repetition", "hamming74"}),
            intKey("repeat"),          // repetition factor (ecc=repetition)
            intKey("frames", 1),       // frames per transmission
            intKey("calib_rounds", 1), // calibration rounds per polarity
            choiceKey("noise", noise_names), // neighbour (contexts >= 2)
            // The rest configure the noise workload, which checks them
            // against its own, narrower declaration.
            intKey("noise_lines", 1),  // working-set size in cache lines
            intKey("noise_unroll", 1), // pointer-chase steps per loop
        };
    }();
    return keys;
}

} // namespace

ChannelRegistry &
ChannelRegistry::instance()
{
    static ChannelRegistry registry;
    // Builtin channels are registered by an explicit call (not static
    // initializers) so a static-archive link cannot drop them.
    static const bool builtins_registered = [] {
        registerBuiltinChannels(registry);
        return true;
    }();
    (void)builtins_registered;
    return registry;
}

void
ChannelRegistry::add(ChannelInfo info)
{
    fatalIf(info.name.empty(), "ChannelRegistry: empty channel name");
    fatalIf(!info.defaults, "ChannelRegistry: channel '" + info.name +
                                "' has no defaults factory");
    fatalIf(find(info.name) != nullptr,
            "ChannelRegistry: duplicate channel '" + info.name + "'");
    channels_.push_back(std::move(info));
}

const ChannelInfo *
ChannelRegistry::find(const std::string &name) const
{
    for (const ChannelInfo &channel : channels_)
        if (channel.name == name)
            return &channel;
    return nullptr;
}

const ChannelInfo &
ChannelRegistry::resolve(const std::string &name) const
{
    if (const ChannelInfo *exact = find(name))
        return *exact;
    std::vector<const ChannelInfo *> matches;
    for (const ChannelInfo &channel : channels_)
        if (channel.name.rfind(name, 0) == 0)
            matches.push_back(&channel);
    if (matches.size() == 1)
        return *matches.front();
    std::string known;
    std::vector<std::string> names;
    for (const ChannelInfo *channel :
         matches.empty() ? all() : matches) {
        known += (known.empty() ? "" : ", ") + channel->name;
        names.push_back(channel->name);
    }
    if (matches.empty()) {
        const std::string suggestion = closestMatch(name, names);
        fatal("unknown channel '" + name + "'" +
              (suggestion.empty()
                   ? ""
                   : " (did you mean '" + suggestion + "'?)") +
              " (known: " + known + ")");
    }
    fatal("ambiguous channel prefix '" + name + "' (matches: " + known +
          ")");
}

ChannelConfig
ChannelRegistry::makeConfig(const std::string &name,
                            const ParamSet &params) const
{
    const ChannelInfo &info = resolve(name);
    params.check(info.params, "channel '" + info.name + "'");
    ChannelConfig config = info.defaults();
    for (const auto &[key, value] : params.entries()) {
        if (key == "frame_bits") {
            config.frame.payloadBits = params.getInt(key, 0);
        } else if (key == "ecc") {
            config.frame.ecc = eccFromName(value);
        } else if (key == "repeat") {
            config.frame.repeat = params.getInt(key, 0);
        } else if (key == "frames") {
            config.frames = params.getInt(key, 0);
        } else if (key == "calib_rounds") {
            config.calibrationRounds = params.getInt(key, 0);
        } else if (key == "noise") {
            config.noise = value;
        } else if (findKey(channelKeys(), key)) { // noise_lines, ...
            config.noiseParams.set(key, value);
        } else {
            config.gadgetParams.set(key, value);
        }
    }
    return config;
}

std::vector<const ChannelInfo *>
ChannelRegistry::all() const
{
    std::vector<const ChannelInfo *> out;
    out.reserve(channels_.size());
    for (const ChannelInfo &channel : channels_)
        out.push_back(&channel);
    std::sort(out.begin(), out.end(),
              [](const ChannelInfo *a, const ChannelInfo *b) {
                  return a->name < b->name;
              });
    return out;
}

void
registerBuiltinChannels(ChannelRegistry &registry)
{
    auto add = [&](std::string name, std::string gadget,
                   Modulation modulation, std::string description,
                   ParamSet gadget_defaults = {}) {
        const GadgetInfo &info =
            GadgetRegistry::instance().resolve(gadget);
        ChannelInfo channel;
        channel.name = std::move(name);
        channel.gadget = info.name;
        channel.modulation = modulationName(modulation);
        channel.params = mergeKeys(channelKeys(), info.params);
        channel.description = std::move(description);
        const std::string gadget_name = info.name;
        channel.defaults = [gadget_name, modulation, gadget_defaults] {
            ChannelConfig config;
            config.gadget = gadget_name;
            config.modulation = modulation;
            config.gadgetParams = gadget_defaults;
            return config;
        };
        registry.add(std::move(channel));
    };

    // Fits both the 4-way and 8-way L1s.
    const ParamSet arbitrary_fit = {{"seq_len", "3"}, {"par_len", "3"}};

    add("ook_pa_race", "pa_race", Modulation::Ook,
        "on/off keying through the transient P/A race (any profile)");
    add("ook_reorder_race", "reorder_race", Modulation::Ook,
        "on/off keying through the reorder race + PLRU readout");
    add("ook_repetition", "repetition", Modulation::Ook,
        "on/off keying through the racing flush+reload repetition "
        "stack");
    add("ook_arith", "arith_magnifier", Modulation::Ook,
        "on/off keying through the arithmetic-only divider magnifier");
    add("ook_hacky_timer", "hacky_timer", Modulation::Ook,
        "on/off keying read with the paper's composed stealthy timer");
    add("ook_hacky_pipeline", "hacky_pipeline", Modulation::Ook,
        "on/off keying through the full race -> magnifier -> coarse "
        "clock stack");
    add("ook_smt_contention", "smt_contention", Modulation::Ook,
        "on/off keying timed by sibling-context counting progress "
        "(needs an smt profile)");
    add("ook_l1_contention", "l1_contention", Modulation::Ook,
        "on/off keying read as sibling-context attributed L1 misses "
        "(needs an smt profile)");
    add("ook_coarse_timer", "coarse_timer", Modulation::Ook,
        "the baseline: on/off keying against the bare 5 us browser "
        "clock (expected BER ~0.5)");
    add("rs2_plru_pa", "plru_pa_magnifier", Modulation::Rs2,
        "2-ary replacement-state symbols through the W=4 tree-PLRU "
        "P/A magnifier");
    add("rs2_plru_reorder", "plru_reorder_magnifier", Modulation::Rs2,
        "2-ary replacement-state symbols through the order-encoded "
        "tree-PLRU magnifier");
    add("rs2_plru_pin", "plru_pin_magnifier", Modulation::Rs2,
        "2-ary replacement-state symbols through the search-derived "
        "pin-pattern magnifier");
    add("rs2_arbitrary", "arbitrary_magnifier", Modulation::Rs2,
        "2-ary replacement-state symbols through the "
        "policy-agnostic chain-reaction magnifier", arbitrary_fit);
}

} // namespace hr

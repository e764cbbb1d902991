/**
 * @file
 * Self-registering string-keyed covert-channel registry.
 *
 * Mirrors GadgetRegistry / ScenarioRegistry / machineProfiles(): every
 * ready-made channel configuration (gadget + modulation + framing
 * defaults) is constructible by a stable string name, so scenarios and
 * the `hr_bench channels` / `hr_bench sweep --channel` commands select
 * complete transmitter/receiver stacks without compile-time coupling.
 *
 * Channel-level parameter keys (every channel accepts them, on top of
 * its gadget's own keys):
 *
 *   frame_bits    payload bits per frame
 *   ecc           none | repetition | hamming74
 *   repeat        repetition factor (ecc=repetition)
 *   frames        frames per transmission
 *   calib_rounds  demodulator calibration rounds per polarity
 *   noise         idle | pointer_chase | stream_writer (contexts >= 2)
 *   noise_lines   noise working-set size in cache lines
 *   noise_unroll  pointer-chase steps per loop iteration
 *
 * Any other key is forwarded to the gadget (GadgetRegistry::make) and
 * validated against the gadget's documented parameter list.
 */

#ifndef HR_CHANNEL_CHANNEL_REGISTRY_HH
#define HR_CHANNEL_CHANNEL_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "channel/channel.hh"

namespace hr
{

/** One registered channel configuration. */
struct ChannelInfo
{
    std::string name;        ///< CLI-stable identifier
    std::string gadget;      ///< underlying GadgetRegistry name
    std::string modulation;  ///< "ook" | "rs2"
    std::string params;      ///< documented parameter keys
    std::string description; ///< one-line human summary
    std::function<ChannelConfig()> defaults; ///< base configuration
};

/** Global name -> channel-configuration registry (sorted listing). */
class ChannelRegistry
{
  public:
    static ChannelRegistry &instance();

    /** Register a channel (fatal on duplicate names). */
    void add(ChannelInfo info);

    /** Exact-name lookup; nullptr if absent. */
    const ChannelInfo *find(const std::string &name) const;

    /**
     * Exact match, else unique prefix match (so `--channel=rs2_plru_pa`
     * and `--channel=ook_pa` resolve). Fatal on no match or an
     * ambiguous prefix, with a nearest-match suggestion.
     */
    const ChannelInfo &resolve(const std::string &name) const;

    /**
     * Build a ChannelConfig by name: the channel's defaults with
     * @p params applied — channel-level keys consumed here, noise_*
     * keys routed to the noise workload, everything else forwarded to
     * the gadget.
     */
    ChannelConfig makeConfig(const std::string &name,
                             const ParamSet &params = {}) const;

    /** All registered channels, sorted by name. */
    std::vector<const ChannelInfo *> all() const;

    /** A channel's documented parameter keys (split from info.params). */
    static std::vector<std::string> paramKeys(const ChannelInfo &info);

  private:
    std::vector<ChannelInfo> channels_;
};

/**
 * Register the built-in channels (one per compatible gadget family).
 * Called exactly once from ChannelRegistry::instance() — an explicit
 * anchor, so a static-archive link can never drop the registrations.
 */
void registerBuiltinChannels(ChannelRegistry &registry);

} // namespace hr

#endif // HR_CHANNEL_CHANNEL_REGISTRY_HH

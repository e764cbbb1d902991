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
 * Every channel declares the channel-level keys (framing, calibration
 * and the noise neighbour; see channelKeys() in channel_registry.cc)
 * merged with its gadget's declared keys. Any key that is not
 * channel-level is forwarded to the gadget (GadgetRegistry::make).
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
    ParamSchema params;      ///< declared parameter keys
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
     * Build a ChannelConfig by name: @p params checked against the
     * channel's declaration (ParamSet::check), then applied to its
     * defaults — framing keys consumed here, the other channel-level
     * keys routed to the noise workload, everything else forwarded to
     * the gadget.
     */
    ChannelConfig makeConfig(const std::string &name,
                             const ParamSet &params = {}) const;

    /** All registered channels, sorted by name. */
    std::vector<const ChannelInfo *> all() const;

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

#include "analysis/capacity.hh"

#include <iomanip>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "channel/channel_registry.hh"
#include "gadgets/gadget_registry.hh"
#include "sim/profiles.hh"

namespace hr
{

CapacityReport
analyzeGadgetCapacity(const std::string &name, const std::string &profile,
                      const ParamSet &params)
{
    CapacityReport report;
    report.kind = "gadget";
    const GadgetInfo &info = GadgetRegistry::instance().resolve(name);
    report.target = info.name;
    report.gadget = info.name;
    try {
        GadgetRecording recording =
            recordGadgetFootprints(info.name, profile, params);
        report.profile = recording.profile;
        report.status = recording.status;
        if (recording.status != "ok")
            return report;
        report.opaque = recording.opaque;
        for (const SecretValuation &valuation :
             SecretDomain::twoPolarity().valuations)
            report.valuationLabels.push_back(valuation.label);
        std::vector<CacheFootprint> footprints;
        footprints.push_back(std::move(recording.footprint[0]));
        footprints.push_back(std::move(recording.footprint[1]));
        report.bound = boundCapacity(
            footprints, machineConfigForProfile(report.profile));
        report.detail = info.kind;
    } catch (const std::exception &e) {
        report.status = std::string("error: ") + e.what();
    }
    return report;
}

CapacityReport
analyzeChannelCapacity(const std::string &name,
                       const std::string &profile, const ParamSet &params)
{
    const ChannelInfo &info = ChannelRegistry::instance().resolve(name);
    // Analyze the gadget exactly as this channel configures it, the
    // same parameter split analyzeChannel (leakage.cc) applies.
    const ChannelConfig config =
        ChannelRegistry::instance().makeConfig(info.name, params);
    CapacityReport report = analyzeGadgetCapacity(
        config.gadget, profile, config.gadgetParams);
    report.kind = "channel";
    report.target = info.name;
    report.detail = info.modulation + " over " + info.gadget;
    return report;
}

CapacityReport
analyzeProgramCapacity(const ProgramTarget &target,
                       const std::string &profile)
{
    CapacityReport report;
    report.kind = "program";
    report.target = target.name;
    report.profile = profile.empty() ? "default" : profile;
    report.detail = target.description;
    const MachineConfig config =
        machineConfigForProfile(report.profile);
    try {
        const std::shared_ptr<const DecodedProgram> decoded =
            decodeProgram(target.program);

        SecretDomain domain;
        if (!target.secretValues.empty()) {
            // The declared N-valued domain: secrets enumerate over
            // secretValues on top of the fast-polarity public state.
            std::map<Addr, std::int64_t> base = target.pokes;
            for (const auto &[addr, value] : target.fastPokes)
                base[addr] = value;
            domain = enumerateSpecDomain(target.spec,
                                         target.secretValues,
                                         target.fastRegs, base);
        } else {
            // No declared domain: fall back to the classifier's
            // fast/slow assignment pair.
            for (int polarity = 0; polarity < 2; ++polarity) {
                SecretValuation valuation;
                valuation.label = polarity == 0 ? "fast" : "slow";
                valuation.regs = polarity == 0 ? target.fastRegs
                                               : target.slowRegs;
                valuation.pokes = target.pokes;
                const auto &overrides = polarity == 0
                                            ? target.fastPokes
                                            : target.slowPokes;
                for (const auto &[addr, value] : overrides)
                    valuation.pokes[addr] = value;
                domain.valuations.push_back(std::move(valuation));
            }
        }

        // One taint pass supplies the unresolved-address count every
        // valuation's footprint must carry, so capacity exactness
        // matches the classifier's (an unresolvable secret-dependent
        // address widens here exactly when it voids exactness there).
        const TaintReport taint = analyzeTaint(
            *decoded, target.spec, domain.valuations.front().regs,
            domain.valuations.front().pokes);

        std::vector<CacheFootprint> footprints;
        for (const SecretValuation &valuation : domain.valuations) {
            FootprintBuilder builder(config);
            builder.addProgram(interpretProgram(*decoded, valuation.regs,
                                                valuation.pokes));
            builder.addUnresolved(
                static_cast<int>(taint.unresolvedMemPcs.size()));
            footprints.push_back(builder.finish());
            report.valuationLabels.push_back(valuation.label);
        }
        report.bound = boundCapacity(footprints, config);
    } catch (const std::exception &e) {
        report.status = std::string("error: ") + e.what();
    }
    return report;
}

std::string
formatBound(const CapacityReport &report)
{
    if (report.status != "ok")
        return report.status;
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << report.bound.bits;
    if (!report.bound.exact)
        os << '*';
    return os.str();
}

std::string
capacityBoundFor(const std::string &gadget)
{
    static std::mutex mutex;
    static std::map<std::string, std::string> cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(gadget);
    if (it != cache.end())
        return it->second;
    std::string cell;
    try {
        cell = formatBound(analyzeGadgetCapacity(gadget, "", {}));
    } catch (const std::exception &) {
        cell = "n/a";
    }
    cache[gadget] = cell;
    return cell;
}

} // namespace hr

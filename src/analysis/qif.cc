#include "analysis/qif.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "obs/log.hh"
#include "util/memory_image.hh"

namespace hr
{
namespace
{

/** Hex-serialize a line address compactly into an observation key. */
void
appendAddr(std::ostringstream &os, Addr addr)
{
    os << std::hex << addr << std::dec << ',';
}

/** Final L1-resident line set: the presence simulation's end state
 * (the same ordered walk FootprintBuilder::finish() counts fills
 * with, so prediction and exactness agree). */
std::set<Addr>
finalPresentLines(const CacheFootprint &fp)
{
    std::set<Addr> present;
    for (const TouchEvent &ev : fp.events) {
        switch (ev.kind) {
          case TouchEvent::Kind::Demand:
          case TouchEvent::Kind::Warm:
            present.insert(ev.line);
            break;
          case TouchEvent::Kind::FlushLine:
            present.erase(ev.line);
            break;
          case TouchEvent::Kind::FlushAll:
            present.clear();
            break;
        }
    }
    return present;
}

char
eventTag(TouchEvent::Kind kind)
{
    switch (kind) {
      case TouchEvent::Kind::Demand: return 'd';
      case TouchEvent::Kind::Warm: return 'w';
      case TouchEvent::Kind::FlushLine: return 'f';
      case TouchEvent::Kind::FlushAll: return 'F';
    }
    return '?';
}

/** log2(classes) with the degenerate <= 1 class convention of 0. */
double
classBits(int classes)
{
    return classes > 1 ? std::log2(static_cast<double>(classes)) : 0.0;
}

} // namespace

SecretDomain
SecretDomain::twoPolarity()
{
    SecretDomain domain;
    domain.valuations.push_back({"fast", {}, {}});
    domain.valuations.push_back({"slow", {}, {}});
    return domain;
}

SecretDomain
enumerateSpecDomain(
    const TaintSpec &spec, const std::vector<std::int64_t> &values,
    const std::vector<std::pair<RegId, std::int64_t>> &base_regs,
    const std::map<Addr, std::int64_t> &base_pokes)
{
    const int secrets = static_cast<int>(spec.regs.size()) +
                        static_cast<int>(spec.addrs.size());
    SecretDomain domain;
    if (secrets == 0 || values.empty()) {
        domain.valuations.push_back({"base", base_regs, base_pokes});
        return domain;
    }

    // Overflow-safe cartesian size check before enumerating.
    double total = 1;
    for (int s = 0; s < secrets; ++s)
        total *= static_cast<double>(values.size());
    fatalIf(total > kMaxValuations,
            "qif: secret domain has " + std::to_string(total) +
                " valuations (cap " + std::to_string(kMaxValuations) +
                "); shrink the value list — truncation would be "
                "unsound");

    // Odometer over `secrets` digits, each running over `values`.
    std::vector<std::size_t> digit(static_cast<std::size_t>(secrets), 0);
    for (;;) {
        SecretValuation valuation;
        valuation.regs = base_regs;
        valuation.pokes = base_pokes;
        std::ostringstream label;
        int index = 0;
        for (RegId reg : spec.regs) {
            const std::int64_t value =
                values[digit[static_cast<std::size_t>(index)]];
            bool replaced = false;
            for (auto &[r, v] : valuation.regs) {
                if (r == reg) {
                    v = value;
                    replaced = true;
                }
            }
            if (!replaced)
                valuation.regs.emplace_back(reg, value);
            label << (index ? "," : "") << "r"
                  << static_cast<int>(reg) << "=" << value;
            ++index;
        }
        for (Addr addr : spec.addrs) {
            const std::int64_t value =
                values[digit[static_cast<std::size_t>(index)]];
            valuation.pokes[MemoryImage::wordAddr(addr)] = value;
            label << (index ? "," : "") << "m" << std::hex << addr
                  << std::dec << "=" << value;
            ++index;
        }
        valuation.label = label.str();
        domain.valuations.push_back(std::move(valuation));

        // Advance the odometer; done when it wraps.
        int pos = secrets - 1;
        while (pos >= 0) {
            std::size_t &d = digit[static_cast<std::size_t>(pos)];
            if (++d < values.size())
                break;
            d = 0;
            --pos;
        }
        if (pos < 0)
            break;
    }
    return domain;
}

const char *
observerFamilyName(ObserverFamily family)
{
    switch (family) {
      case ObserverFamily::L1FillSet: return "l1_fill_set";
      case ObserverFamily::ProbeSequence: return "probe_sequence";
      case ObserverFamily::FuTiming: return "fu_timing";
      case ObserverFamily::TransientFootprint:
        return "transient_footprint";
    }
    return "?";
}

std::string
observationKey(const CacheFootprint &fp, ObserverFamily family,
               const MachineConfig &config)
{
    (void)config;
    std::ostringstream os;
    switch (family) {
      case ObserverFamily::L1FillSet:
        for (Addr line : finalPresentLines(fp))
            appendAddr(os, line);
        break;
      case ObserverFamily::ProbeSequence:
        for (const TouchEvent &ev : fp.events) {
            os << eventTag(ev.kind);
            appendAddr(os, ev.line);
        }
        break;
      case ObserverFamily::FuTiming:
        for (std::uint64_t count : fp.fuCount)
            os << count << ',';
        break;
      case ObserverFamily::TransientFootprint:
        for (Addr line : fp.transientLines)
            appendAddr(os, line);
        break;
    }
    return os.str();
}

bool
observationExact(const CacheFootprint &fp, ObserverFamily family)
{
    // accessesExact certifies a complete architectural stream (no
    // cap, branches, clock reads, co-runners, or unresolved
    // addresses); everything but the presence surface reduces to it.
    // Presence additionally needs eviction-freedom, which is exactly
    // fillsExact.
    if (family == ObserverFamily::L1FillSet)
        return fp.fillsExact;
    return fp.accessesExact;
}

CapacityBound
boundCapacity(const std::vector<CacheFootprint> &footprints,
              const MachineConfig &config)
{
    CapacityBound bound;
    bound.valuations = static_cast<int>(footprints.size());

    std::vector<std::string> jointKeys(footprints.size());
    std::vector<bool> jointExact(footprints.size(), true);

    for (int f = 0; f < kNumObserverFamilies; ++f) {
        const auto family = static_cast<ObserverFamily>(f);
        FamilyBound fb;
        fb.family = family;
        std::set<std::string> keys;
        for (std::size_t i = 0; i < footprints.size(); ++i) {
            const std::string key =
                observationKey(footprints[i], family, config);
            jointKeys[i] += key;
            jointKeys[i] += '|';
            if (observationExact(footprints[i], family)) {
                keys.insert(key);
            } else {
                // Unprovable prediction: the valuation cannot be
                // shown equivalent to any other, so it counts as its
                // own class — the bound can only grow (stays sound).
                ++fb.widened;
                jointExact[i] = false;
            }
        }
        fb.classes = static_cast<int>(keys.size()) + fb.widened;
        fb.bits = classBits(fb.classes);
        fb.exact = fb.widened == 0;
        bound.families.push_back(fb);
    }

    // Joint partition: a best-case adversary reads every surface in
    // the same trial, distinguishing two valuations iff any family
    // does. Widened valuations stay singletons here too.
    std::set<std::string> joint;
    int widened = 0;
    for (std::size_t i = 0; i < footprints.size(); ++i) {
        if (jointExact[i])
            joint.insert(jointKeys[i]);
        else
            ++widened;
    }
    bound.jointClasses = static_cast<int>(joint.size()) + widened;
    bound.bits = classBits(bound.jointClasses);
    bound.exact = widened == 0;

    const FamilyBound *best = nullptr;
    for (const FamilyBound &fb : bound.families) {
        if (best == nullptr || fb.bits > best->bits ||
            (fb.bits == best->bits && fb.exact && !best->exact))
            best = &fb;
    }
    bound.bestFamily = best != nullptr
                           ? observerFamilyName(best->family)
                           : "";
    return bound;
}

} // namespace hr

/**
 * @file
 * String-keyed gadget registry.
 *
 * Mirrors ScenarioRegistry and machineProfiles(): every TimingSource
 * is constructible by a stable string name on a given Machine, so
 * scenarios, examples, and the `hr_bench gadgets` / `hr_bench sweep`
 * commands select timing primitives without compile-time coupling to
 * their concrete classes. Each entry declares its parameter keys (a
 * ParamSchema that make() checks every ParamSet against); its factory
 * reads the checked ParamSet into the gadget's own config struct, whose
 * fields keep the defaults, and returns nullptr when the gadget cannot
 * run on the machine (wrong replacement policy, associativity, set
 * count, or too few hardware contexts).
 *
 * The built-in sources register from GadgetRegistry::instance() itself
 * (an explicit call, not static initializers), so a static-archive
 * link can never drop them.
 */

#ifndef HR_GADGETS_GADGET_REGISTRY_HH
#define HR_GADGETS_GADGET_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gadgets/timing_source.hh"
#include "util/params.hh"

namespace hr
{

/** One registered gadget. */
struct GadgetInfo
{
    std::string name;        ///< CLI-stable identifier
    std::string kind;        ///< encoder | amplifier | timer | composite
    ParamSchema params;      ///< declared parameter keys
    std::string description; ///< one-line human summary
    /** Build on a machine from (declared) params; nullptr: can't run. */
    std::function<std::unique_ptr<TimingSource>(Machine &,
                                                 const ParamSet &)>
        factory;
};

/** Global name -> TimingSource factory registry (sorted listing). */
class GadgetRegistry
{
  public:
    static GadgetRegistry &instance();

    /** Register a gadget (fatal on duplicate names). */
    void add(GadgetInfo info);

    /** Exact-name lookup; nullptr if absent. */
    const GadgetInfo *find(const std::string &name) const;

    /**
     * Exact match, else unique prefix match (so `--gadget=arith`
     * resolves arith_magnifier). Fatal on no match or an ambiguous
     * prefix, listing the candidates.
     */
    const GadgetInfo &resolve(const std::string &name) const;

    /**
     * Construct a source by name (exact or unique prefix) bound to
     * @p machine, configured by @p params. Fatal on an undeclared key
     * or a value outside its declaration (ParamSet::check); nullptr if
     * the gadget cannot run on @p machine.
     */
    std::unique_ptr<TimingSource> make(const std::string &name,
                                       Machine &machine,
                                       const ParamSet &params = {}) const;

    /** All registered gadgets, sorted by name. */
    std::vector<const GadgetInfo *> all() const;

  private:
    std::vector<GadgetInfo> gadgets_;
};

} // namespace hr

#endif // HR_GADGETS_GADGET_REGISTRY_HH

/**
 * @file
 * A tour of every registered gadget: construct each TimingSource by
 * name on the first machine profile it runs on, calibrate, and
 * transmit one bit each way. The whole library surface in one loop —
 * adding a new gadget to the registry adds it to this tour
 * automatically.
 */

#include <cstdio>
#include <exception>

#include "gadgets/gadget_registry.hh"
#include "sim/profiles.hh"

using namespace hr;

int
main()
{
    for (const GadgetInfo *info : GadgetRegistry::instance().all()) {
        std::printf("-- %s [%s] --\n  %s\n", info->name.c_str(),
                    info->kind.c_str(), info->description.c_str());

        // First profile the gadget can run on (a sweep would report the
        // rest as `incompatible`).
        std::unique_ptr<Machine> machine;
        std::unique_ptr<TimingSource> source;
        std::string profile_name;
        for (const MachineProfile &profile : machineProfiles()) {
            machine = std::make_unique<Machine>(profile.make());
            source = GadgetRegistry::instance().make(info->name, *machine);
            if (source) {
                profile_name = profile.name;
                break;
            }
        }
        if (!source) {
            std::printf("  (no compatible machine profile)\n\n");
            continue;
        }

        try {
            source->calibrate();
            const TimingSample fast = source->sample(false);
            const TimingSample slow = source->sample(true);
            std::printf("  on `%s`: transmit 0 -> %.1f us (bit %d), "
                        "transmit 1 -> %.1f us (bit %d)\n",
                        profile_name.c_str(), machine->toNs(fast.cycles)
                            / 1e3, fast.bit ? 1 : 0,
                        machine->toNs(slow.cycles) / 1e3,
                        slow.bit ? 1 : 0);
        } catch (const std::exception &e) {
            std::printf("  on `%s`: %s\n", profile_name.c_str(),
                        e.what());
        }
        std::printf("\n");
    }

    std::printf("compose your own: Pipeline(machine).then(encoder)"
                ".then(amplifier) — see gadgets/pipeline.hh\n");
    return 0;
}

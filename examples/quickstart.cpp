/**
 * @file
 * Quickstart: every timing primitive in the library is a TimingSource,
 * constructible by string name from the GadgetRegistry. Build the
 * paper's stealthy timer, calibrate it, and read secret bits — then
 * see why the bare 5-microsecond clock needs the magnification.
 */

#include <cstdio>

#include "gadgets/gadget_registry.hh"
#include "sim/profiles.hh"

using namespace hr;

int
main()
{
    // A machine with a 4-way tree-PLRU L1 (the paper's configuration).
    Machine machine(machineConfigForProfile("plru"));

    // The composed attack stack by name: a transient P/A racing gadget
    // feeding the PLRU magnifier, read with the 5 us browser clock.
    // `slow_ops`/`fast_ops` set the two expressions being compared
    // against the `ref_ops`-add reference path.
    ParamSet params;
    params.set("ref_ops", "20");
    params.set("slow_ops", "60");
    params.set("fast_ops", "5");
    auto timer =
        GadgetRegistry::instance().make("hacky_pipeline", machine, params);
    std::printf("source: %s\n  composed stack: pa_race -> "
                "plru_pa_magnifier, read with the coarse clock\n",
                timer->name().c_str());

    // Calibrate the coarse-clock decision threshold from the two known
    // magnifier states, then observe: sample(secret) returns the
    // quantized duration and the decoded bit.
    timer->calibrate();
    for (bool secret : {false, true, true, false}) {
        const TimingSample sample = timer->sample(secret);
        std::printf("  transmitted %d -> %7.1f us on the 5 us clock, "
                    "decoded %d %s\n",
                    secret ? 1 : 0, sample.ns / 1e3, sample.bit ? 1 : 0,
                    sample.bit == secret ? "(correct)" : "(WRONG)");
    }

    // The same bits through the bare coarse clock — no magnifier, no
    // race. At 5 us resolution a 55-add difference is invisible, which
    // is exactly why the paper builds the stack above.
    ParamSet bare_params;
    bare_params.set("slow_ops", "60");
    bare_params.set("fast_ops", "5");
    auto bare = GadgetRegistry::instance().make("coarse_timer", machine,
                                                bare_params);
    bare->calibrate();
    int correct = 0;
    for (bool secret : {false, true, true, false})
        correct += bare->sample(secret).bit == secret ? 1 : 0;
    std::printf("\nbare coarse_timer on the same bits: %d/4 decoded "
                "correctly — magnification is the whole game.\n",
                correct);

    std::printf("\nEverything above used only loads, arithmetic, one "
                "branch, and a 5 us clock.\n");
    return 0;
}

#include "timer/calibration.hh"

#include "obs/log.hh"

namespace hr
{

Calibration
calibrateThresholdLenient(const std::function<double(bool)> &observe_ns)
{
    Calibration calibration;
    calibration.fastNs = observe_ns(false);
    calibration.slowNs = observe_ns(true);
    calibration.thresholdNs =
        0.5 * (calibration.slowNs + calibration.fastNs);
    calibration.separable = calibration.slowNs > calibration.fastNs;
    return calibration;
}

Calibration
calibrateThreshold(const std::function<double(bool)> &observe_ns,
                   const std::string &who)
{
    Calibration calibration = calibrateThresholdLenient(observe_ns);
    fatalIf(!calibration.separable,
            who + ": calibration produced no signal (slow state read " +
                std::to_string(calibration.slowNs) + " ns vs fast " +
                std::to_string(calibration.fastNs) +
                " ns); increase the magnifier repeats or check the "
                "timer resolution");
    return calibration;
}

} // namespace hr

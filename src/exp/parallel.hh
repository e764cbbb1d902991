/**
 * @file
 * parallelFor: the one worker queue behind scenario fan-out
 * (ScenarioContext::parallelMap/poolMap) and `hr_bench analyze`.
 */

#ifndef HR_EXP_PARALLEL_HH
#define HR_EXP_PARALLEL_HH

#include <functional>

namespace hr
{

/**
 * Run body(index) for every index in [0, count) on up to @p jobs
 * threads, the caller's included, handing indices out from one shared
 * counter; blocks until every worker is done. Once a body throws, no
 * further index starts and the first exception is rethrown here.
 */
void parallelFor(int count, int jobs, const std::function<void(int)> &body);

} // namespace hr

#endif // HR_EXP_PARALLEL_HH

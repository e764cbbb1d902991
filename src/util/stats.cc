#include "util/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/log.hh"
#include "util/table.hh"

namespace hr
{

void
SampleStats::add(double x)
{
    if (!std::isfinite(x)) {
        ++dropped_;
        return;
    }
    samples_.push_back(x);
    sorted_ = false;
}

double
SampleStats::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

double
SampleStats::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    const double m = mean();
    double s = 0.0;
    for (double x : samples_)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

double
SampleStats::min() const
{
    if (samples_.empty())
        return 0.0;
    return *std::min_element(samples_.begin(), samples_.end());
}

double
SampleStats::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

void
SampleStats::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
SampleStats::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    // Edges return the exact order statistic: interpolating at p=0/100
    // (or on a one-element set) can drift by a few ulps, which matters
    // when callers compare percentiles against recorded extremes.
    if (samples_.size() == 1 || p <= 0.0)
        return samples_.front();
    if (p >= 100.0)
        return samples_.back();
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    fatalIf(bins == 0 || hi <= lo, "Histogram: bad binning");
}

void
Histogram::add(double x)
{
    if (!std::isfinite(x)) {
        // Casting a NaN/inf bin index to an integer is UB; count the
        // sample as dropped instead of corrupting a bin.
        ++dropped_;
        return;
    }
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    // Clamp in the double domain: casting a finite value outside the
    // int64 range is just as undefined as casting a NaN.
    double pos = (x - lo_) / width;
    const double last = static_cast<double>(counts_.size() - 1);
    if (!(pos > 0.0))
        pos = 0.0;
    else if (pos > last)
        pos = last;
    ++counts_[static_cast<std::size_t>(pos)];
    ++total_;
}

double
Histogram::binCenter(std::size_t i) const
{
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + width * (static_cast<double>(i) + 0.5);
}

double
Histogram::binFraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

double
Histogram::overlap(const Histogram &other) const
{
    panicIf(other.counts_.size() != counts_.size(),
            "Histogram::overlap: bin count mismatch");
    double shared = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i)
        shared += std::min(binFraction(i), other.binFraction(i));
    return shared;
}

std::string
Histogram::render(std::size_t width) const
{
    std::size_t peak = 1;
    for (std::size_t c : counts_)
        peak = std::max(peak, c);
    std::string out;
    char line[160];
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const auto bar =
            static_cast<std::size_t>(counts_[i] * width / peak);
        std::snprintf(line, sizeof(line), "%12.3f | %-*s %zu\n",
                      binCenter(i), static_cast<int>(width),
                      std::string(bar, '#').c_str(), counts_[i]);
        out += line;
    }
    return out;
}

std::string
Histogram::renderJson() const
{
    std::string out = "{\"lo\": " + jsonNum(lo_) +
                      ", \"hi\": " + jsonNum(hi_) +
                      ", \"dropped\": " + std::to_string(dropped_) +
                      ", \"bins\": [";
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "[" + jsonNum(binCenter(i)) + ", " +
               std::to_string(counts_[i]) + "]";
    }
    return out + "]}";
}

std::string
Histogram::renderCsv() const
{
    std::string out = "bin_center,count\n";
    for (std::size_t i = 0; i < counts_.size(); ++i)
        out += jsonNum(binCenter(i)) + "," + std::to_string(counts_[i]) +
               "\n";
    out += "# dropped: " + std::to_string(dropped_) + "\n";
    return out;
}

std::string
SampleStats::renderJson() const
{
    return "{\"count\": " + std::to_string(count()) +
           ", \"dropped\": " + std::to_string(dropped_) +
           ", \"mean\": " + jsonNum(mean()) +
           ", \"stddev\": " + jsonNum(stddev()) +
           ", \"min\": " + jsonNum(min()) +
           ", \"max\": " + jsonNum(max()) +
           ", \"median\": " + jsonNum(median()) + "}";
}

double
correlation(const std::vector<double> &x, const std::vector<double> &y)
{
    panicIf(x.size() != y.size(), "correlation: size mismatch");
    if (x.size() < 2)
        return 0.0;
    const auto n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        syy += y[i] * y[i];
        sxy += x[i] * y[i];
    }
    const double cov = sxy - sx * sy / n;
    const double vx = sxx - sx * sx / n;
    const double vy = syy - sy * sy / n;
    if (vx <= 0 || vy <= 0)
        return 0.0;
    return cov / std::sqrt(vx * vy);
}

double
linearSlope(const std::vector<double> &x, const std::vector<double> &y)
{
    panicIf(x.size() != y.size(), "linearSlope: size mismatch");
    if (x.size() < 2)
        return 0.0;
    const auto n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        sxy += x[i] * y[i];
    }
    const double vx = sxx - sx * sx / n;
    if (vx == 0)
        return 0.0;
    return (sxy - sx * sy / n) / vx;
}

} // namespace hr

#include "util/rng.hh"

#include "obs/log.hh"

namespace hr
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    ++draws_;
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    panicIf(bound == 0, "Rng::below(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    panicIf(lo > hi, "Rng::range: lo > hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? next() : below(span));
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xdeadbeefcafef00dull);
}

} // namespace hr

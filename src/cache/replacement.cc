#include "cache/replacement.hh"

#include <algorithm>

#include "obs/log.hh"

namespace hr
{

PolicyKind
policyKindFromName(const std::string &name)
{
    if (name == "plru")
        return PolicyKind::TreePlru;
    if (name == "lru")
        return PolicyKind::Lru;
    if (name == "random")
        return PolicyKind::Random;
    if (name == "nru")
        return PolicyKind::Nru;
    if (name == "srrip")
        return PolicyKind::Srrip;
    fatal("unknown replacement policy: " + name);
}

std::string
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::TreePlru: return "plru";
      case PolicyKind::Lru: return "lru";
      case PolicyKind::Random: return "random";
      case PolicyKind::Nru: return "nru";
      case PolicyKind::Srrip: return "srrip";
    }
    panic("policyKindName: bad kind");
}


namespace
{

/** Downcast for copyFrom, panicking on type/associativity mismatch. */
template <typename T>
const T &
sameKind(const ReplacementPolicy &self, const ReplacementPolicy &other)
{
    const T *o = dynamic_cast<const T *>(&other);
    panicIf(o == nullptr || o->assoc() != self.assoc(),
            "ReplacementPolicy::copyFrom: type/assoc mismatch");
    return *o;
}

} // namespace

// ---------------------------------------------------------------- PLRU

TreePlruPolicy::TreePlruPolicy(int assoc)
    : ReplacementPolicy(assoc), bits_(static_cast<std::size_t>(assoc - 1), 0)
{
    fatalIf(assoc < 2 || (assoc & (assoc - 1)) != 0,
            "TreePlru requires power-of-two associativity >= 2");
}

void
TreePlruPolicy::touch(int way)
{
    panicIf(way < 0 || way >= assoc_, "TreePlru::touch: bad way");
    // Walk from the root toward the leaf, flipping each node to point
    // away from the accessed way.
    int node = 0;
    int lo = 0, hi = assoc_; // [lo, hi) range of ways under this node
    while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        if (way < mid) {
            bits_[node] = 1; // accessed left, point right
            node = 2 * node + 1;
            hi = mid;
        } else {
            bits_[node] = 0; // accessed right, point left
            node = 2 * node + 2;
            lo = mid;
        }
    }
}

int
TreePlruPolicy::victim()
{
    int node = 0;
    int lo = 0, hi = assoc_;
    while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        if (bits_[node] == 0) {
            node = 2 * node + 1;
            hi = mid;
        } else {
            node = 2 * node + 2;
            lo = mid;
        }
    }
    return lo;
}

void
TreePlruPolicy::invalidate(int way)
{
    // Point the tree at the invalidated way so it is refilled first.
    int node = 0;
    int lo = 0, hi = assoc_;
    while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        if (way < mid) {
            bits_[node] = 0;
            node = 2 * node + 1;
            hi = mid;
        } else {
            bits_[node] = 1;
            node = 2 * node + 2;
            lo = mid;
        }
    }
}

std::string
TreePlruPolicy::stateString() const
{
    std::string s = "plru[";
    for (auto b : bits_)
        s += b ? '1' : '0';
    return s + "]";
}

std::unique_ptr<ReplacementPolicy>
TreePlruPolicy::clone() const
{
    return std::make_unique<TreePlruPolicy>(*this);
}

void
TreePlruPolicy::copyFrom(const ReplacementPolicy &other)
{
    bits_ = sameKind<TreePlruPolicy>(*this, other).bits_;
}

void
TreePlruPolicy::setBits(const std::vector<std::uint8_t> &bits)
{
    panicIf(bits.size() != bits_.size(), "setBits: size mismatch");
    bits_ = bits;
}

// ----------------------------------------------------------------- LRU

LruPolicy::LruPolicy(int assoc)
    : ReplacementPolicy(assoc), stamp_(static_cast<std::size_t>(assoc), 0)
{
}

void
LruPolicy::touch(int way)
{
    stamp_[static_cast<std::size_t>(way)] = ++clock_;
}

int
LruPolicy::victim()
{
    return static_cast<int>(std::distance(
        stamp_.begin(), std::min_element(stamp_.begin(), stamp_.end())));
}

void
LruPolicy::invalidate(int way)
{
    stamp_[static_cast<std::size_t>(way)] = 0;
}

std::string
LruPolicy::stateString() const
{
    std::string s = "lru[";
    for (std::size_t i = 0; i < stamp_.size(); ++i) {
        if (i)
            s += ',';
        s += std::to_string(stamp_[i]);
    }
    return s + "]";
}

std::unique_ptr<ReplacementPolicy>
LruPolicy::clone() const
{
    return std::make_unique<LruPolicy>(*this);
}

void
LruPolicy::copyFrom(const ReplacementPolicy &other)
{
    const auto &o = sameKind<LruPolicy>(*this, other);
    stamp_ = o.stamp_;
    clock_ = o.clock_;
}

// -------------------------------------------------------------- Random

RandomPolicy::RandomPolicy(int assoc, Rng rng)
    : ReplacementPolicy(assoc), rng_(rng)
{
}

void
RandomPolicy::touch(int way)
{
    (void)way;
}

int
RandomPolicy::victim()
{
    return static_cast<int>(rng_.below(static_cast<std::uint64_t>(assoc_)));
}

void
RandomPolicy::invalidate(int way)
{
    (void)way;
}

std::string
RandomPolicy::stateString() const
{
    return "random[]";
}

std::unique_ptr<ReplacementPolicy>
RandomPolicy::clone() const
{
    return std::make_unique<RandomPolicy>(*this);
}

void
RandomPolicy::copyFrom(const ReplacementPolicy &other)
{
    rng_ = sameKind<RandomPolicy>(*this, other).rng_;
}

bool
RandomPolicy::reseed(std::uint64_t seed)
{
    rng_.reseed(seed);
    return true;
}

// ----------------------------------------------------------------- NRU

NruPolicy::NruPolicy(int assoc)
    : ReplacementPolicy(assoc), ref_(static_cast<std::size_t>(assoc), 0)
{
}

void
NruPolicy::touch(int way)
{
    ref_[static_cast<std::size_t>(way)] = 1;
    // If every way is now recently used, age everyone else.
    if (std::all_of(ref_.begin(), ref_.end(),
                    [](std::uint8_t r) { return r == 1; })) {
        std::fill(ref_.begin(), ref_.end(), 0);
        ref_[static_cast<std::size_t>(way)] = 1;
    }
}

int
NruPolicy::victim()
{
    for (std::size_t i = 0; i < ref_.size(); ++i)
        if (ref_[i] == 0)
            return static_cast<int>(i);
    return 0;
}

void
NruPolicy::invalidate(int way)
{
    ref_[static_cast<std::size_t>(way)] = 0;
}

std::string
NruPolicy::stateString() const
{
    std::string s = "nru[";
    for (auto r : ref_)
        s += r ? '1' : '0';
    return s + "]";
}

std::unique_ptr<ReplacementPolicy>
NruPolicy::clone() const
{
    return std::make_unique<NruPolicy>(*this);
}

void
NruPolicy::copyFrom(const ReplacementPolicy &other)
{
    ref_ = sameKind<NruPolicy>(*this, other).ref_;
}

// --------------------------------------------------------------- SRRIP

SrripPolicy::SrripPolicy(int assoc)
    : ReplacementPolicy(assoc),
      rrpv_(static_cast<std::size_t>(assoc), kMax),
      filled_(static_cast<std::size_t>(assoc), 0)
{
}

void
SrripPolicy::touch(int way)
{
    auto w = static_cast<std::size_t>(way);
    if (!filled_[w]) {
        filled_[w] = 1;
        rrpv_[w] = kMax - 1; // long re-reference on insertion
    } else {
        rrpv_[w] = 0; // near re-reference on hit
    }
}

int
SrripPolicy::victim()
{
    for (;;) {
        for (std::size_t i = 0; i < rrpv_.size(); ++i)
            if (rrpv_[i] == kMax)
                return static_cast<int>(i);
        for (auto &r : rrpv_)
            ++r;
    }
}

void
SrripPolicy::invalidate(int way)
{
    auto w = static_cast<std::size_t>(way);
    rrpv_[w] = kMax;
    filled_[w] = 0;
}

std::string
SrripPolicy::stateString() const
{
    std::string s = "srrip[";
    for (std::size_t i = 0; i < rrpv_.size(); ++i) {
        if (i)
            s += ',';
        s += std::to_string(rrpv_[i]);
    }
    return s + "]";
}

std::unique_ptr<ReplacementPolicy>
SrripPolicy::clone() const
{
    return std::make_unique<SrripPolicy>(*this);
}

void
SrripPolicy::copyFrom(const ReplacementPolicy &other)
{
    const auto &o = sameKind<SrripPolicy>(*this, other);
    rrpv_ = o.rrpv_;
    filled_ = o.filled_;
}

// ------------------------------------------------- state signatures

namespace
{

/** FNV-1a over a byte sequence fed 64 bits at a time. */
std::uint64_t
sigMix(std::uint64_t hash, std::uint64_t value)
{
    hash ^= value;
    return hash * 0x100000001b3ull;
}

constexpr std::uint64_t kSigBasis = 0xcbf29ce484222325ull;

} // namespace

std::uint64_t
TreePlruPolicy::stateSig() const
{
    std::uint64_t sig = kSigBasis;
    for (std::uint8_t bit : bits_)
        sig = sigMix(sig, bit);
    return sig;
}

std::uint64_t
LruPolicy::stateSig() const
{
    // Canonicalize the monotone stamps to dense ranks: victim() only
    // compares stamps (min wins, lowest way breaks ties), so the rank
    // vector — with ties mapped to the same rank — captures exactly
    // the behaviorally relevant order while staying stable across a
    // loop that re-touches the ways in the same sequence.
    std::uint64_t sig = kSigBasis;
    for (std::size_t i = 0; i < stamp_.size(); ++i) {
        std::uint64_t rank = 0;
        for (std::size_t j = 0; j < stamp_.size(); ++j)
            if (stamp_[j] < stamp_[i])
                ++rank;
        sig = sigMix(sig, rank);
    }
    return sig;
}

std::uint64_t
RandomPolicy::stateSig() const
{
    // Only meaningful when compared on the same instance over time:
    // an unchanged draw count means the stream was never consumed, so
    // its state (and therefore all future victim choices) is intact.
    return sigMix(kSigBasis, rng_.draws());
}

std::uint64_t
RandomPolicy::rngDraws() const
{
    return rng_.draws();
}

std::uint64_t
NruPolicy::stateSig() const
{
    std::uint64_t sig = kSigBasis;
    for (std::uint8_t bit : ref_)
        sig = sigMix(sig, bit);
    return sig;
}

std::uint64_t
SrripPolicy::stateSig() const
{
    std::uint64_t sig = kSigBasis;
    for (std::size_t i = 0; i < rrpv_.size(); ++i)
        sig = sigMix(sig, static_cast<std::uint64_t>(rrpv_[i]) |
                              (static_cast<std::uint64_t>(filled_[i])
                               << 8));
    return sig;
}

// ------------------------------------------------------------- factory

std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, int assoc, std::uint64_t rng_seed)
{
    switch (kind) {
      case PolicyKind::TreePlru:
        return std::make_unique<TreePlruPolicy>(assoc);
      case PolicyKind::Lru:
        return std::make_unique<LruPolicy>(assoc);
      case PolicyKind::Random:
        return std::make_unique<RandomPolicy>(assoc, Rng(rng_seed));
      case PolicyKind::Nru:
        return std::make_unique<NruPolicy>(assoc);
      case PolicyKind::Srrip:
        return std::make_unique<SrripPolicy>(assoc);
    }
    panic("makePolicy: bad kind");
}

} // namespace hr

#include "gadgets/plru_pattern.hh"

#include <algorithm>
#include <optional>

#include "gadgets/plru_magnifier.hh"
#include "obs/log.hh"
#include "obs/trace.hh"

namespace hr
{

PlruSetModel::PlruSetModel(int assoc)
    : assoc_(assoc), contents_(static_cast<std::size_t>(assoc), -1),
      plru_(assoc)
{
}

PlruSetModel::PlruSetModel(std::vector<int> contents,
                           const std::vector<std::uint8_t> &bits)
    : assoc_(static_cast<int>(contents.size())),
      contents_(std::move(contents)), plru_(assoc_)
{
    plru_.setBits(bits);
}

int
PlruSetModel::wayOf(int line) const
{
    for (int w = 0; w < assoc_; ++w)
        if (contents_[static_cast<std::size_t>(w)] == line)
            return w;
    return -1;
}

bool
PlruSetModel::contains(int line) const
{
    return wayOf(line) >= 0;
}

bool
PlruSetModel::access(int line)
{
    int way = wayOf(line);
    if (way >= 0) {
        plru_.touch(way);
        return false;
    }
    // Prefer an invalid way; otherwise evict the candidate.
    way = -1;
    for (int w = 0; w < assoc_; ++w) {
        if (contents_[static_cast<std::size_t>(w)] == -1) {
            way = w;
            break;
        }
    }
    if (way < 0)
        way = plru_.victim();
    contents_[static_cast<std::size_t>(way)] = line;
    plru_.touch(way);
    return true;
}

int
PlruSetModel::evictionCandidate() const
{
    TreePlruPolicy copy = plru_;
    return contents_[static_cast<std::size_t>(copy.victim())];
}

std::string
PlruSetModel::render() const
{
    std::string out = "[";
    for (int w = 0; w < assoc_; ++w) {
        if (w)
            out += ' ';
        const int line = contents_[static_cast<std::size_t>(w)];
        if (line < 0)
            out += '-';
        else if (line < 26)
            out += static_cast<char>('A' + line);
        else
            out += std::to_string(line);
    }
    out += "]";
    return out;
}

bool
PlruSetModel::operator==(const PlruSetModel &other) const
{
    return contents_ == other.contents_ && bits() == other.bits();
}

PlruStateCodec::PlruStateCodec(int assoc) : assoc_(assoc)
{
    int line_bits = 1; // for line ids -1..W+1, stored as id + 1
    while ((1 << line_bits) < assoc + 3)
        ++line_bits;
    int word = 0, shift = 0;
    for (int field = 0; field < 2 * assoc - 1; ++field) {
        const int width = field < assoc ? line_bits : 1;
        if (shift + width > 64)
            ++word, shift = 0;
        fields_.push_back({word, shift, (std::uint64_t{1} << width) - 1});
        shift += width;
    }
    words_ = word + 1;
}

std::uint64_t
PlruStateCodec::get(const std::uint64_t *key, int field) const
{
    const Field &f = fields_[static_cast<std::size_t>(field)];
    return (key[f.word] >> f.shift) & f.mask;
}

void
PlruStateCodec::set(std::uint64_t *key, int field, std::uint64_t value) const
{
    const Field &f = fields_[static_cast<std::size_t>(field)];
    key[f.word] = (key[f.word] & ~(f.mask << f.shift)) | (value << f.shift);
}

void
PlruStateCodec::pack(const PlruSetModel &model, std::uint64_t *key) const
{
    std::fill_n(key, words_, 0);
    for (std::size_t way = 0; way < model.contents().size(); ++way)
        set(key, static_cast<int>(way),
            static_cast<std::uint64_t>(model.contents()[way] + 1));
    for (std::size_t node = 0; node < model.bits().size(); ++node)
        set(key, assoc_ + static_cast<int>(node), model.bits()[node]);
}

PlruSetModel
PlruStateCodec::unpack(const std::uint64_t *key) const
{
    std::vector<int> contents;
    std::vector<std::uint8_t> bits;
    for (int way = 0; way < assoc_; ++way)
        contents.push_back(static_cast<int>(get(key, way)) - 1);
    for (int node = 0; node + 1 < assoc_; ++node)
        bits.push_back(static_cast<std::uint8_t>(get(key, assoc_ + node)));
    return PlruSetModel(std::move(contents), bits);
}

int
PlruStateCodec::wayOf(const std::uint64_t *key, int line) const
{
    for (int way = 0; way < assoc_; ++way)
        if (get(key, way) == static_cast<std::uint64_t>(line + 1))
            return way;
    return -1;
}

bool
PlruStateCodec::access(std::uint64_t *key, int line) const
{
    // PlruSetModel::access, with TreePlruPolicy's victim and touch
    // walks on the packed tree bits.
    int way = wayOf(key, line);
    const bool miss = way < 0;
    if (miss)
        way = wayOf(key, -1); // prefer an invalid way
    if (way < 0) {
        int node = 0, lo = 0, hi = assoc_;
        while (hi - lo > 1) {
            const bool right = get(key, assoc_ + node) != 0;
            node = 2 * node + (right ? 2 : 1);
            (right ? lo : hi) = lo + (hi - lo) / 2;
        }
        way = lo;
    }
    set(key, way, static_cast<std::uint64_t>(line + 1));
    for (int node = 0, lo = 0, hi = assoc_; hi - lo > 1;) {
        const bool left = way < lo + (hi - lo) / 2;
        set(key, assoc_ + node, left ? 1 : 0); // point away from the way
        node = 2 * node + (left ? 1 : 2);
        (left ? hi : lo) = lo + (hi - lo) / 2;
    }
    return miss;
}

namespace
{

/** Canonical pre-race state: lines 1..W resident, tree as in Fig 3(1). */
PlruSetModel
canonicalBaseState(int assoc)
{
    PlruSetModel model(assoc);
    for (int line = 1; line <= assoc; ++line)
        model.access(line);
    // Extra touch on the last-but-one fill to move the candidate to
    // way 0 while leaving an interior pointer set (W=4: state (0,0,1)).
    model.access(assoc - 1);
    return model;
}

/**
 * Packed states in discovery order, `words` per node in one flat array,
 * found through an open-addressing table of node indices.
 */
class StateTable
{
  public:
    explicit StateTable(std::size_t words) : words_(words) {}

    std::size_t size() const { return keys_.size() / words_; }

    const std::uint64_t *key(std::size_t node) const
    {
        return &keys_[node * words_];
    }

    /** The node holding @p key, and whether it was added just now. */
    std::pair<int, bool> insert(const std::uint64_t *key)
    {
        if (4 * (size() + 1) > 3 * slots_.size()) { // keep load <= 3/4
            slots_.assign(std::max<std::size_t>(4096, 2 * slots_.size()), -1);
            for (std::size_t node = 0; node < size(); ++node)
                slotOf(this->key(node)) = static_cast<int>(node);
        }
        int &slot = slotOf(key);
        if (slot >= 0)
            return {slot, false};
        slot = static_cast<int>(size());
        keys_.insert(keys_.end(), key, key + words_);
        return {slot, true};
    }

  private:
    /** The slot holding @p key's node, or the empty one ending its probe. */
    int &slotOf(const std::uint64_t *key)
    {
        std::uint64_t hash = 0;
        for (std::size_t i = 0; i < words_; ++i) {
            hash = (hash ^ key[i]) * 0x9e3779b97f4a7c15ull;
            hash ^= hash >> 29;
        }
        for (std::size_t at = hash;; ++at) {
            int &slot = slots_[at & (slots_.size() - 1)];
            if (slot < 0 ||
                std::equal(key, key + words_,
                           this->key(static_cast<std::size_t>(slot))))
                return slot;
        }
    }

    std::size_t words_;
    std::vector<std::uint64_t> keys_;
    std::vector<int> slots_; ///< power-of-two size, -1: empty
};

} // namespace

std::optional<PinPattern>
findPinPattern(int assoc, int max_len)
{
    fatalIf(assoc < 2 || (assoc & (assoc - 1)) != 0,
            "findPinPattern: associativity must be a power of two");
    HR_TRACE_SCOPE("gadgets", "gadgets.pin_search");

    // Post-race state: pinned line 0 inserted over the candidate.
    PlruSetModel start = canonicalBaseState(assoc);
    start.access(0);
    const PlruStateCodec codec(assoc);
    const std::size_t words = static_cast<std::size_t>(codec.words());
    std::vector<std::uint64_t> next(words);
    codec.pack(start, next.data());
    StateTable states(words);
    states.insert(next.data());

    // Build the reachable state graph over accesses that never evict
    // the pinned line. Fig. 3's own cycle returns to a way-permuted
    // equivalent of its start, so we search for *any* cycle containing
    // a miss edge, plus a lead-in path from the start state. Node at's
    // edges are succ[at * lines + line - 1] for lines 1..W+1, -1 where
    // the access evicts the pinned line.
    const auto lines = static_cast<std::size_t>(assoc) + 1;
    auto access = [&](std::size_t at, int line) {
        std::copy_n(states.key(at), words, next.begin());
        return codec.access(next.data(), line);
    };
    std::vector<int> succ, parent{-1}; // parent: BFS tree for lead-ins
    constexpr std::size_t kMaxNodes = 200'000;
    for (std::size_t at = 0; at < states.size() && at < kMaxNodes; ++at) {
        for (int line = 1; line <= assoc + 1; ++line) {
            if (access(at, line) && codec.wayOf(next.data(), 0) < 0) {
                succ.push_back(-1); // pinned line evicted: dead edge
                continue;
            }
            const auto [to, inserted] = states.insert(next.data());
            if (inserted)
                parent.push_back(static_cast<int>(at));
            succ.push_back(to);
        }
    }
    const std::size_t expanded = succ.size() / lines;

    // The access lines of the tree path root -> node, where up[] gives
    // each node's tree parent. A BFS discovers a node through the first
    // line of its parent's row that leads to it.
    auto path = [&](const std::vector<int> &up, int root, int node) {
        std::vector<int> out;
        for (; node != root; node = up[static_cast<std::size_t>(node)]) {
            const int from = up[static_cast<std::size_t>(node)];
            const int *row = &succ[static_cast<std::size_t>(from) * lines];
            const auto line = std::find(row, row + lines, node) - row + 1;
            out.push_back(static_cast<int>(line));
        }
        std::reverse(out.begin(), out.end());
        return out;
    };

    // BFS from `from` until `to` is discovered, at most `bound` edges
    // deep; prev then holds the path. Epoch stamps mark the nodes this
    // BFS discovered.
    std::vector<unsigned> seen(states.size(), 0);
    std::vector<int> prev(states.size()), frontier;
    unsigned epoch = 0;
    auto back_path = [&](int from, int to, int bound) {
        seen[static_cast<std::size_t>(from)] = ++epoch;
        frontier.assign(1, from);
        std::size_t head = 0;
        for (int depth = 0; depth < bound && head < frontier.size(); ++depth) {
            for (const std::size_t end = frontier.size(); head < end; ++head) {
                const auto at = static_cast<std::size_t>(frontier[head]);
                if (at >= expanded)
                    continue; // past the expansion cap: no out-edges
                for (std::size_t e = at * lines; e < (at + 1) * lines; ++e) {
                    const int t = succ[e];
                    if (t < 0 || seen[static_cast<std::size_t>(t)] == epoch)
                        continue;
                    seen[static_cast<std::size_t>(t)] = epoch;
                    prev[static_cast<std::size_t>(t)] = static_cast<int>(at);
                    if (t == to)
                        return true;
                    frontier.push_back(t);
                }
            }
        }
        return false;
    };

    // The shortest cycle through some miss edge u -> v (v != u: a miss
    // changes the contents): the edge, then the BFS path from v back to
    // u. Only a cycle shorter than the best so far and no longer than
    // max_len is kept, which bounds the BFS depth.
    std::optional<PinPattern> best;
    int attempts = 0;
    for (std::size_t u = 0; u < expanded && attempts < 400; ++u) {
        for (int line = 1; line <= assoc + 1; ++line) {
            const int v = succ[u * lines + static_cast<std::size_t>(line) - 1];
            if (v < 0 || !access(u, line))
                continue;
            ++attempts;
            const int longest =
                best ? std::min(max_len, static_cast<int>(
                                             best->accesses.size()) - 1)
                     : max_len;
            if (!back_path(v, static_cast<int>(u), longest - 1))
                continue;
            PinPattern pattern;
            pattern.accesses = path(prev, v, static_cast<int>(u));
            pattern.accesses.insert(pattern.accesses.begin(), line);
            pattern.leadIn = path(parent, 0, static_cast<int>(u));
            // Count misses per period by simulation from u.
            std::copy_n(states.key(u), words, next.begin());
            for (int step : pattern.accesses)
                pattern.missesPerPeriod += codec.access(next.data(), step);
            best = std::move(pattern);
        }
        if (best && best->accesses.size() <= 2)
            break;
    }
    return best;
}

bool
validatePinPattern(int assoc, const PinPattern &pattern, int periods)
{
    // (a) pinned line stays resident and every period misses.
    PlruSetModel with_a = canonicalBaseState(assoc);
    with_a.access(0);
    for (int line : pattern.leadIn) {
        with_a.access(line);
        if (!with_a.contains(0))
            return false;
    }
    for (int p = 0; p < periods; ++p) {
        int misses = 0;
        for (int line : pattern.accesses) {
            misses += with_a.access(line) ? 1 : 0;
            if (!with_a.contains(0))
                return false;
        }
        if (misses == 0)
            return false;
    }

    // (b) without the pinned line, misses must die out.
    PlruSetModel without_a = canonicalBaseState(assoc);
    for (int line : pattern.leadIn)
        without_a.access(line);
    int last_period_misses = -1;
    for (int p = 0; p < periods; ++p) {
        last_period_misses = 0;
        for (int line : pattern.accesses)
            last_period_misses += without_a.access(line) ? 1 : 0;
    }
    return last_period_misses == 0;
}

PinPatternMagnifier::PinPatternMagnifier(
    Machine &machine, const PinPatternMagnifierConfig &config,
    const PinPattern &pattern)
    : Amplifier(machine)
{
    const int assoc = machine_.hierarchy().l1().config().assoc;
    // Line ids 0 (pinned) .. W+1 (the search alphabet's spare).
    lines_ = PlruMagnifier::sameSetLines(machine_, config.set, assoc + 2,
                                         config.tagBase);
    ProgramBuilder builder("plru_pin_magnify");
    RegId r = builder.movImm(0);
    for (int line : pattern.leadIn)
        builder.loadOrderedInto(r, lines_[static_cast<std::size_t>(line)]);
    for (int rep = 0; rep < config.repeats; ++rep)
        for (int line : pattern.accesses)
            builder.loadOrderedInto(
                r, lines_[static_cast<std::size_t>(line)]);
    builder.halt();
    program_ = builder.take();
}

void
PinPatternMagnifier::prepare()
{
    for (Addr addr : lines_)
        machine_.flushLine(addr);
    const int assoc = machine_.hierarchy().l1().config().assoc;
    for (int line = 1; line <= assoc; ++line)
        machine_.warm(lines_[static_cast<std::size_t>(line)], 1);
    machine_.warm(lines_[static_cast<std::size_t>(assoc - 1)], 1);
    machine_.warm(lines_[0], 2);
}

void
PinPatternMagnifier::forceInput(bool slow)
{
    if (slow)
        machine_.warm(lines_[0], 1);
}

Cycle
PinPatternMagnifier::amplify()
{
    return machine_.run(program_).cycles();
}

} // namespace hr

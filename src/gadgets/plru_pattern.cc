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

    /** Free the table and hand over the keys of the first @p nodes. */
    std::vector<std::uint64_t> release(std::size_t nodes)
    {
        slots_ = {};
        keys_.resize(nodes * words_);
        keys_.shrink_to_fit();
        return std::move(keys_);
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

PlruPinGraph::PlruPinGraph(int assoc)
    : codec_(assoc), lines_(static_cast<std::size_t>(assoc) + 1),
      words_(static_cast<std::size_t>(codec_.words()))
{
    fatalIf(assoc < 2 || (assoc & (assoc - 1)) != 0,
            "PlruPinGraph: associativity must be a power of two");
    // Post-race state: pinned line 0 inserted over the candidate.
    PlruSetModel start = canonicalBaseState(assoc);
    start.access(0);
    std::vector<std::uint64_t> next(words_);
    codec_.pack(start, next.data());
    StateTable states(words_);
    states.insert(next.data());

    // Fig. 3's own cycle returns to a way-permuted equivalent of its
    // start, so the search looks for *any* cycle containing a miss
    // edge, plus a lead-in path from the start state.
    constexpr std::size_t kMaxExpanded = 200'000;
    succ_.reserve(kMaxExpanded * lines_);
    parent_.push_back(-1);
    for (std::size_t at = 0; at < states.size() && at < kMaxExpanded;
         ++at) {
        for (int line = 1; line <= assoc + 1; ++line) {
            std::copy_n(states.key(at), words_, next.begin());
            if (codec_.access(next.data(), line) &&
                codec_.wayOf(next.data(), 0) < 0) {
                succ_.push_back(-1); // pinned line evicted: dead edge
                continue;
            }
            const auto [to, inserted] = states.insert(next.data());
            if (inserted)
                parent_.push_back(static_cast<int>(at));
            succ_.push_back(to);
        }
    }
    expanded_ = succ_.size() / lines_;
    nodes_ = states.size();
    // Only expanded nodes are ever simulated from or walked back
    // through: drop the table and the leaves' keys and parents before
    // the reverse edges are built.
    keys_ = states.release(expanded_);
    parent_.resize(expanded_);
    parent_.shrink_to_fit();

    // Reverse edges into expanded nodes, in CSR form: the predecessors
    // of node t are revFrom_[revStart_[t] .. revStart_[t + 1]). Each
    // count is summed to its range's end, then filled downwards.
    revStart_.assign(expanded_ + 1, 0);
    auto into_expanded = [&](int to) {
        return to >= 0 && static_cast<std::size_t>(to) < expanded_;
    };
    for (const int to : succ_)
        if (into_expanded(to))
            ++revStart_[static_cast<std::size_t>(to)];
    for (std::size_t node = 1; node <= expanded_; ++node)
        revStart_[node] += revStart_[node - 1];
    revFrom_.resize(static_cast<std::size_t>(revStart_[expanded_]));
    for (std::size_t e = 0; e < succ_.size(); ++e)
        if (into_expanded(succ_[e]))
            revFrom_[static_cast<std::size_t>(
                --revStart_[static_cast<std::size_t>(succ_[e])])] =
                static_cast<int>(e / lines_);
    stamp_.assign(expanded_, 0);
    prev_.resize(expanded_);
}

int
PlruPinGraph::next(std::size_t at, int line) const
{
    return succ_[at * lines_ + static_cast<std::size_t>(line) - 1];
}

bool
PlruPinGraph::reaches(int from, int to, int bound)
{
    fatalIf(to < 0 || static_cast<std::size_t>(to) >= expanded_,
            "PlruPinGraph: a path query must end at an expanded node");
    if (from == to || bound < 1 ||
        static_cast<std::size_t>(from) >= expanded_)
        return false; // a leaf has no out-edges
    // Forward from `from` to depth ceil(bound / 2), then back from `to`
    // to depth floor(bound / 2): the two balls meet iff some path is at
    // most `bound` long. Leaves are skipped: they have no out-edges and
    // are never backward nodes, so they can neither lead on nor meet.
    const unsigned forward = ++epoch_;
    stamp_[static_cast<std::size_t>(from)] = forward;
    frontier_.assign(1, from);
    std::size_t head = 0;
    for (int depth = 0; depth < (bound + 1) / 2 && head < frontier_.size();
         ++depth) {
        for (const std::size_t end = frontier_.size(); head < end; ++head) {
            const auto at = static_cast<std::size_t>(frontier_[head]);
            for (std::size_t e = at * lines_; e < (at + 1) * lines_; ++e) {
                const int t = succ_[e];
                if (t < 0 || static_cast<std::size_t>(t) >= expanded_ ||
                    stamp_[static_cast<std::size_t>(t)] == forward)
                    continue;
                if (t == to)
                    return true;
                stamp_[static_cast<std::size_t>(t)] = forward;
                frontier_.push_back(t);
            }
        }
    }
    const unsigned backward = ++epoch_;
    stamp_[static_cast<std::size_t>(to)] = backward;
    frontier_.assign(1, to);
    head = 0;
    for (int depth = 0; depth < bound / 2 && head < frontier_.size();
         ++depth) {
        for (const std::size_t end = frontier_.size(); head < end; ++head) {
            const auto at = static_cast<std::size_t>(frontier_[head]);
            for (int r = revStart_[at]; r < revStart_[at + 1]; ++r) {
                const int p = revFrom_[static_cast<std::size_t>(r)];
                if (stamp_[static_cast<std::size_t>(p)] == forward)
                    return true;
                if (stamp_[static_cast<std::size_t>(p)] == backward)
                    continue;
                stamp_[static_cast<std::size_t>(p)] = backward;
                frontier_.push_back(p);
            }
        }
    }
    return false;
}

std::vector<int>
PlruPinGraph::shortestPath(int from, int to, int bound)
{
    fatalIf(to < 0 || static_cast<std::size_t>(to) >= expanded_,
            "PlruPinGraph: a path query must end at an expanded node");
    if (from == to || static_cast<std::size_t>(from) >= expanded_)
        return {};
    // BFS from `from` until `to` is discovered, at most `bound` edges
    // deep. Skipping leaves at discovery changes no other node's
    // discovery order or parent.
    const unsigned epoch = ++epoch_;
    stamp_[static_cast<std::size_t>(from)] = epoch;
    frontier_.assign(1, from);
    std::size_t head = 0;
    for (int depth = 0; depth < bound && head < frontier_.size(); ++depth) {
        for (const std::size_t end = frontier_.size(); head < end; ++head) {
            const auto at = static_cast<std::size_t>(frontier_[head]);
            for (std::size_t e = at * lines_; e < (at + 1) * lines_; ++e) {
                const int t = succ_[e];
                if (t < 0 || static_cast<std::size_t>(t) >= expanded_ ||
                    stamp_[static_cast<std::size_t>(t)] == epoch)
                    continue;
                stamp_[static_cast<std::size_t>(t)] = epoch;
                prev_[static_cast<std::size_t>(t)] = static_cast<int>(at);
                if (t == to)
                    return linesAlong(prev_, from, to);
                frontier_.push_back(t);
            }
        }
    }
    return {};
}

std::vector<int>
PlruPinGraph::leadIn(int node) const
{
    return linesAlong(parent_, 0, node);
}

std::vector<int>
PlruPinGraph::linesAlong(const std::vector<int> &up, int root,
                         int node) const
{
    // A BFS discovers a node through the first line of its parent's
    // row that leads to it.
    std::vector<int> out;
    for (; node != root; node = up[static_cast<std::size_t>(node)]) {
        const int from = up[static_cast<std::size_t>(node)];
        const int *row = &succ_[static_cast<std::size_t>(from) * lines_];
        const auto line = std::find(row, row + lines_, node) - row + 1;
        out.push_back(static_cast<int>(line));
    }
    std::reverse(out.begin(), out.end());
    return out;
}

std::optional<PinPattern>
findPinPattern(int assoc, int max_len)
{
    HR_TRACE_SCOPE("gadgets", "gadgets.pin_search");
    PlruPinGraph graph(assoc);
    const PlruStateCodec &codec = graph.codec();
    std::vector<std::uint64_t> state(static_cast<std::size_t>(codec.words()));
    auto load = [&](std::size_t node) {
        std::copy(graph.key(node), graph.key(node) + state.size(),
                  state.begin());
    };

    // The shortest cycle through some miss edge u -> v (v != u: a miss
    // changes the contents): the edge, then the BFS path from v back to
    // u. Only a cycle shorter than the best so far and no longer than
    // max_len is kept, which bounds the BFS depth; the meet-in-the-
    // middle check rules most edges out before any exact BFS runs.
    std::optional<PinPattern> best;
    int attempts = 0;
    for (std::size_t u = 0; u < graph.expanded() && attempts < 400; ++u) {
        for (int line = 1; line <= assoc + 1; ++line) {
            const int v = graph.next(u, line);
            load(u);
            if (v < 0 || !codec.access(state.data(), line))
                continue;
            ++attempts;
            const int longest =
                best ? std::min(max_len, static_cast<int>(
                                             best->accesses.size()) - 1)
                     : max_len;
            if (!graph.reaches(v, static_cast<int>(u), longest - 1))
                continue;
            PinPattern pattern;
            pattern.accesses =
                graph.shortestPath(v, static_cast<int>(u), longest - 1);
            pattern.accesses.insert(pattern.accesses.begin(), line);
            pattern.leadIn = graph.leadIn(static_cast<int>(u));
            // Count misses per period by simulation from u.
            load(u);
            for (int step : pattern.accesses)
                pattern.missesPerPeriod += codec.access(state.data(), step);
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

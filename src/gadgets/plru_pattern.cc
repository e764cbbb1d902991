#include "gadgets/plru_pattern.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <queue>

#include "gadgets/plru_magnifier.hh"
#include "obs/log.hh"

namespace hr
{

PlruSetModel::PlruSetModel(int assoc)
    : assoc_(assoc), contents_(static_cast<std::size_t>(assoc), -1),
      plru_(assoc)
{
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

/** Serializable key for visited-state tracking. */
std::string
stateKey(const PlruSetModel &model)
{
    std::string key;
    for (int line : model.contents())
        key += static_cast<char>(line + 2);
    key += '|';
    for (auto bit : model.bits())
        key += static_cast<char>('0' + bit);
    return key;
}

} // namespace

std::optional<PinPattern>
findPinPattern(int assoc, int max_len)
{
    fatalIf(assoc < 2 || (assoc & (assoc - 1)) != 0,
            "findPinPattern: associativity must be a power of two");

    // Post-race state: pinned line 0 inserted over the candidate.
    PlruSetModel start = canonicalBaseState(assoc);
    start.access(0);

    // Build the reachable state graph over accesses that never evict
    // the pinned line. Fig. 3's own cycle returns to a way-permuted
    // equivalent of its start, so we search for *any* cycle containing
    // a miss edge, plus a lead-in path from the start state.
    struct EdgeRec
    {
        int line;
        int to; // node index
        bool miss;
    };
    std::vector<PlruSetModel> nodes;
    std::vector<std::vector<EdgeRec>> edges;
    std::vector<int> parent, parent_line; // BFS tree for lead-ins
    std::map<std::string, int> index;

    std::vector<int> alphabet;
    for (int line = 1; line <= assoc + 1; ++line)
        alphabet.push_back(line);

    nodes.push_back(start);
    edges.emplace_back();
    parent.push_back(-1);
    parent_line.push_back(-1);
    index[stateKey(start)] = 0;

    constexpr std::size_t kMaxNodes = 200'000;
    for (std::size_t at = 0; at < nodes.size() && at < kMaxNodes; ++at) {
        for (int line : alphabet) {
            PlruSetModel next = nodes[at];
            const bool miss = next.access(line);
            if (!next.contains(0))
                continue; // pinned line evicted: dead edge
            const std::string key = stateKey(next);
            auto [it, inserted] =
                index.try_emplace(key, static_cast<int>(nodes.size()));
            if (inserted) {
                nodes.push_back(next);
                edges.emplace_back();
                parent.push_back(static_cast<int>(at));
                parent_line.push_back(line);
            }
            edges[at].push_back({line, it->second, miss});
        }
    }

    // Find the shortest cycle through some miss edge (u -> v): BFS from
    // v back to u inside the graph, then stitch the edge labels.
    auto bfs_path = [&](int from, int to) -> std::optional<std::vector<int>> {
        std::vector<int> prev(nodes.size(), -2), prev_line(nodes.size());
        std::queue<int> frontier;
        frontier.push(from);
        prev[static_cast<std::size_t>(from)] = -1;
        while (!frontier.empty()) {
            const int at = frontier.front();
            frontier.pop();
            if (at == to)
                break;
            for (const auto &edge : edges[static_cast<std::size_t>(at)]) {
                if (prev[static_cast<std::size_t>(edge.to)] != -2)
                    continue;
                prev[static_cast<std::size_t>(edge.to)] = at;
                prev_line[static_cast<std::size_t>(edge.to)] = edge.line;
                frontier.push(edge.to);
            }
        }
        if (prev[static_cast<std::size_t>(to)] == -2 && from != to)
            return std::nullopt;
        std::vector<int> labels;
        for (int at = to; at != from || labels.empty();) {
            if (at == from)
                break;
            labels.push_back(prev_line[static_cast<std::size_t>(at)]);
            at = prev[static_cast<std::size_t>(at)];
        }
        std::reverse(labels.begin(), labels.end());
        return labels;
    };

    std::optional<PinPattern> best;
    int attempts = 0;
    for (std::size_t u = 0; u < nodes.size() && attempts < 400; ++u) {
        for (const auto &edge : edges[u]) {
            if (!edge.miss)
                continue;
            ++attempts;
            auto back = bfs_path(edge.to, static_cast<int>(u));
            if (!back)
                continue;
            std::vector<int> cycle{edge.line};
            cycle.insert(cycle.end(), back->begin(), back->end());
            if (static_cast<int>(cycle.size()) > max_len)
                continue;
            if (best && best->accesses.size() <= cycle.size())
                continue;
            PinPattern pattern;
            pattern.accesses = cycle;
            // Lead-in: BFS-tree path from the start to u.
            std::vector<int> lead;
            for (int at = static_cast<int>(u); parent[static_cast<
                     std::size_t>(at)] != -1 || at != 0;) {
                if (at == 0)
                    break;
                lead.push_back(parent_line[static_cast<std::size_t>(at)]);
                at = parent[static_cast<std::size_t>(at)];
            }
            std::reverse(lead.begin(), lead.end());
            pattern.leadIn = lead;
            // Count misses per period by simulation from u.
            PlruSetModel sim = nodes[u];
            int misses = 0;
            for (int line : cycle)
                misses += sim.access(line) ? 1 : 0;
            pattern.missesPerPeriod = misses;
            best = pattern;
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

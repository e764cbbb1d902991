/**
 * @file
 * Search-based generalization of the PLRU magnifier pattern.
 *
 * The paper gives the W = 4 pin pattern (B,C,E,C,D,C) by hand. This
 * module derives such patterns automatically for any power-of-two
 * associativity: find a cyclic access sequence over the non-pinned
 * lines that (a) never evicts the pinned line, (b) returns the set to
 * its starting state, and (c) misses at least once per period. This
 * supports the paper's argument (section 9) that removing W = 4 PLRU
 * caches "will only cause the attacker to change strategy".
 *
 * The search runs over packed (contents, tree-bits) states
 * (PlruStateCodec: one 64-bit word up to W = 8, two up to W = 16) in
 * PlruPinGraph: a breadth-first expansion from the post-insertion
 * state, over accesses to lines 1..W+1, numbers the states in
 * discovery order and fills a successor table of W + 1 node indices
 * per expanded state, -1 where the access would evict the pinned line
 * (at most 200,000 expanded states; later ones are leaves without
 * out-edges). Then, for each miss edge u -> v in node order (at most
 * 400), a BFS from v back to u closes a cycle; the shortest cycle wins,
 * ties going to the earliest edge, and the lead-in is the BFS-tree path
 * to u.
 *
 * The back BFS stops at depth b = min(max_len - 1, best - 2), where
 * best is the length of the best cycle so far. That bound is exact: a
 * longer back path closes a cycle longer than max_len or no shorter
 * than the best, which would be rejected anyway, and BFS discovers
 * every node within the bound in the same order, through the same
 * parent, as an unbounded BFS does.
 *
 * Most back BFSs find nothing; a meet-in-the-middle check runs first
 * and the exact BFS only where it says a path exists. The check runs a
 * forward BFS from v to depth ceil(b/2), then a BFS from u over
 * reverse edges to depth floor(b/2), and reports whether the two meet.
 * That is exact: a path of length d <= b from v to u has a node at
 * forward depth min(d, ceil(b/2)) whose distance to u is at most
 * floor(b/2), and any meeting node joins a forward and a backward path
 * of total length <= b. Only the nodes below the expansion cap have
 * out-edges, so every node on such a path except v is one of them, and
 * v is one too unless it is a leaf (then no path leaves it): the
 * reverse edges need only cover edges into expanded nodes, and leaves
 * the forward BFS reaches can neither lead on nor meet. Both BFSs skip
 * leaves at discovery, which changes no other node's discovery order
 * or parent, so the exact BFS still builds the same path.
 */

#ifndef HR_GADGETS_PLRU_PATTERN_HH
#define HR_GADGETS_PLRU_PATTERN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "gadgets/timing_source.hh"

namespace hr
{

/**
 * A miniature one-set PLRU cache model used for searching and for the
 * Fig. 3/4 walkthrough benches. Lines are small integer ids; -1 means
 * an invalid way.
 */
class PlruSetModel
{
  public:
    explicit PlruSetModel(int assoc);

    /** A set holding @p contents by way, with tree bits @p bits. */
    PlruSetModel(std::vector<int> contents,
                 const std::vector<std::uint8_t> &bits);

    int assoc() const { return assoc_; }

    /** Access a line: touch on hit, victim-fill on miss.
     * @return true if the access missed. */
    bool access(int line);

    /** True if the line is resident. */
    bool contains(int line) const;

    /** Way holding the line, or -1. */
    int wayOf(int line) const;

    /** Line id the tree currently points at (eviction candidate). */
    int evictionCandidate() const;

    /** Contents by way, e.g. "[A C D B]" with ids mapped to letters. */
    std::string render() const;

    const std::vector<int> &contents() const { return contents_; }
    const std::vector<std::uint8_t> &bits() const { return plru_.bits(); }

    bool operator==(const PlruSetModel &other) const;

  private:
    int assoc_;
    std::vector<int> contents_;
    TreePlruPolicy plru_;
};

/**
 * The packed form findPinPattern keeps a PlruSetModel state in: way w's
 * line id + 1 (0: invalid) in a field wide enough for lines -1..W+1,
 * then the W - 1 tree bits in heap order, packed into words() 64-bit
 * words with no field straddling two words.
 */
class PlruStateCodec
{
  public:
    explicit PlruStateCodec(int assoc);

    int words() const { return words_; }

    void pack(const PlruSetModel &model, std::uint64_t *key) const;
    PlruSetModel unpack(const std::uint64_t *key) const;

    /** PlruSetModel::access on a packed state, in place.
     * @return true if the access missed. */
    bool access(std::uint64_t *key, int line) const;

    /** Way holding the line (-1: the first invalid way), or -1. */
    int wayOf(const std::uint64_t *key, int line) const;

  private:
    struct Field
    {
        int word;
        int shift;
        std::uint64_t mask;
    };

    std::uint64_t get(const std::uint64_t *key, int field) const;
    void set(std::uint64_t *key, int field, std::uint64_t value) const;

    int assoc_;
    int words_ = 0;
    std::vector<Field> fields_; ///< W ways, then W - 1 tree nodes
};

/**
 * The state graph findPinPattern searches: the states reachable from
 * the post-insertion state over accesses to lines 1..W+1 that keep the
 * pinned line resident, numbered in discovery order (node 0 is the
 * start). Nodes below expanded() have out-edges; the rest are leaves.
 * The path queries share scratch arrays, so one graph serves one
 * thread.
 */
class PlruPinGraph
{
  public:
    explicit PlruPinGraph(int assoc);

    const PlruStateCodec &codec() const { return codec_; }

    /** Every discovered state, leaves included. */
    std::size_t nodes() const { return nodes_; }

    /** The states with out-edges: nodes 0 .. expanded() - 1. */
    std::size_t expanded() const { return expanded_; }

    /** The successor of node @p at < expanded() on @p line (1..W+1),
     * -1 where the access evicts the pinned line. */
    int next(std::size_t at, int line) const;

    /** The packed state of node @p at < expanded(). */
    const std::uint64_t *key(std::size_t at) const
    {
        return &keys_[at * words_];
    }

    /**
     * Whether a path of 1..@p bound edges leads from node @p from to
     * node @p to: the meet-in-the-middle check. False when @p from is
     * @p to; fatal unless @p to < expanded().
     */
    bool reaches(int from, int to, int bound);

    /**
     * The lines along the BFS path from @p from to @p to of at most
     * @p bound edges (same arguments as reaches()); empty if none.
     */
    std::vector<int> shortestPath(int from, int to, int bound);

    /** The lines along the BFS-tree path from node 0 to node
     * @p node < expanded(). */
    std::vector<int> leadIn(int node) const;

  private:
    /** Lines along the tree path root -> node; up[] is the tree. */
    std::vector<int> linesAlong(const std::vector<int> &up, int root,
                                int node) const;

    PlruStateCodec codec_;
    std::size_t lines_; ///< W + 1 accessed lines: a succ_ row's width
    std::size_t words_;
    std::size_t nodes_ = 0;
    std::size_t expanded_ = 0;
    std::vector<std::uint64_t> keys_; ///< expanded states, words_ each
    std::vector<int> succ_;   ///< expanded_ rows of lines_ successors
    std::vector<int> parent_; ///< BFS tree of the expansion (lead-ins)
    std::vector<int> revStart_, revFrom_; ///< reverse edges, CSR
    // Scratch for the path queries. Epoch stamps mark the nodes one
    // BFS discovered; prev_ is the exact BFS's tree.
    std::vector<unsigned> stamp_;
    std::vector<int> prev_, frontier_;
    unsigned epoch_ = 0;
};

/** A discovered pin pattern. */
struct PinPattern
{
    /**
     * Accesses bringing the post-insertion state onto the cycle (may be
     * empty). The W = 4 pattern of Fig. 3 needs no lead-in.
     */
    std::vector<int> leadIn;
    /** Line ids to access, in order, per period (pinned line is id 0). */
    std::vector<int> accesses;
    /** Misses per period while the pinned line is resident. */
    int missesPerPeriod = 0;
};

/**
 * Find a cyclic pin pattern for a W-way tree-PLRU set.
 *
 * Starting state: lines 1..W fill the set in way order, line W gets an
 * extra touch, then line 0 (the pinned line, "A") is inserted — the
 * generalization of Fig. 3(1) -> 3(2).
 *
 * @param assoc    power-of-two associativity (>= 2)
 * @param max_len  maximum period length to search
 * @return a pattern, or nullopt if none exists within max_len.
 */
std::optional<PinPattern> findPinPattern(int assoc, int max_len = 16);

/**
 * Validate a pattern: starting from the canonical post-insertion state,
 * repeating it `periods` times must (a) keep the pinned line resident
 * the whole time with >= 1 miss per period, and (b) starting from the
 * counterpart state where the pinned line is absent, reach a state with
 * zero misses per period.
 */
bool validatePinPattern(int assoc, const PinPattern &pattern,
                        int periods = 50);

/** Configuration of the pin-pattern magnifier. */
struct PinPatternMagnifierConfig
{
    int set = 3;       ///< L1 set the pattern's lines map to
    int repeats = 500; ///< pattern periods per traversal
    int tagBase = 16;  ///< tag space for the lines
    int maxLen = 16;   ///< longest period findPinPattern may search
};

/**
 * The tree-PLRU magnifier for any power-of-two associativity
 * (registry name plru_pin_magnifier): the W = 4 magnifier of section
 * 6.1 generalized through a findPinPattern result. Line 0 — the pinned
 * line — is the input: present reads slow.
 */
class PinPatternMagnifier : public Amplifier
{
  public:
    /** @p pattern: findPinPattern(L1 assoc, config.maxLen). */
    PinPatternMagnifier(Machine &machine,
                        const PinPatternMagnifierConfig &config,
                        const PinPattern &pattern);

    std::string name() const override { return "plru_pin_magnifier"; }

    /**
     * The canonical base state of findPinPattern: lines 1..W fill the
     * set in way order, the last-but-one fill gets an extra touch; the
     * pinned line 0 is staged in L2.
     */
    void prepare() override;

    std::pair<Addr, Addr> inputLines() override { return {lines_[0], 0}; }
    void forceInput(bool slow) override;
    Cycle amplify() override;

  private:
    std::vector<Addr> lines_; ///< line ids 0 (pinned) .. W+1 (spare)
    Program program_;
};

} // namespace hr

#endif // HR_GADGETS_PLRU_PATTERN_HH

#include "campaign/enumerate.hh"

#include <algorithm>
#include <array>

#include "base/hashing.hh"
#include "base/logging.hh"
#include "campaign/symmetry.hh"
#include "litmus/test.hh"

namespace gam::campaign
{

namespace
{

using litmus::CycleEdge;
using litmus::CycleEventKind;
using litmus::EdgeVariants;
using litmus::isFenceVariant;
using litmus::V_ADDR;
using litmus::V_FRE;
using litmus::V_RFE;

/**
 * One name token per litmus::EdgeVariant code, the alphabet the DFS
 * walks.  Fence kinds are distinct letters in it, so rotation
 * minimality is decided on fully concrete cycles -- two fence
 * expansions of one structural cycle are different relaxations and
 * both get a representative.
 */
constexpr const char *variantToken[EdgeVariants] = {
    "rfe", "coe", "fre", "po", "fll", "fls", "fsl", "fss",
    "adr", "dat", "ctl",
};

bool
isCommV(int v)
{
    return litmus::isCommunication(litmus::variantKind(v));
}

/** litmus::cycleEventKind() of the event between every pair of
 *  variants, tabulated once for the DFS. */
constexpr auto eventKindTable = [] {
    std::array<std::array<CycleEventKind, EdgeVariants>, EdgeVariants> t{};
    for (int in = 0; in < EdgeVariants; ++in) {
        for (int out = 0; out < EdgeVariants; ++out) {
            t[size_t(in)][size_t(out)] = litmus::cycleEventKind(
                litmus::headNeed(litmus::variantKind(in)),
                litmus::tailNeed(litmus::variantKind(out)));
        }
    }
    return t;
}();

/** The kind the lowering assigns to an event between two edges. */
CycleEventKind
eventKind(int in_variant, int out_variant)
{
    return eventKindTable[size_t(in_variant)][size_t(out_variant)];
}

/** Does fence variant @p v fit @p kind before it? */
bool
fitsBefore(int v, CycleEventKind kind)
{
    return litmus::fitsFenceSide(isa::fencePre(litmus::variantFence(v)),
                                 kind);
}

/** Does fence variant @p v fit @p kind after it? */
bool
fitsAfter(int v, CycleEventKind kind)
{
    return litmus::fitsFenceSide(isa::fencePost(litmus::variantFence(v)),
                                 kind);
}

/**
 * The canonical encoding of rotation @p r of a cycle: one byte per
 * edge, (variant << 2) | head-event location label, with labels
 * renormalized to first-occurrence order along the rotated event walk
 * (so the encoding is invariant under any relabelling of locations).
 */
void
rotationCodes(const std::vector<int> &variants,
              const std::vector<int> &locs, int r,
              std::vector<uint8_t> &out)
{
    const int n = static_cast<int>(variants.size());
    int relabel[4] = {-1, -1, -1, -1};
    int next = 0;
    for (int j = 0; j < n; ++j) {
        int &slot = relabel[locs[size_t((r + j) % n)]];
        if (slot < 0)
            slot = next++;
    }
    out.resize(size_t(n));
    for (int i = 0; i < n; ++i) {
        const int e = (r + i) % n;
        const int head = (e + 1) % n;
        out[size_t(i)] = static_cast<uint8_t>(
            (variants[size_t(e)] << 2) | relabel[locs[size_t(head)]]);
    }
}

/**
 * Assemble the emitted representative from a canonical (minimal
 * rotation, restricted-growth labels) variant/location assignment.
 */
CanonicalCycle
buildCanonical(const std::vector<int> &variants,
               const std::vector<int> &locs,
               const std::vector<uint8_t> &codes)
{
    const int n = static_cast<int>(variants.size());
    CanonicalCycle cycle;
    cycle.numLocations =
        std::clamp(1 + *std::max_element(locs.begin(), locs.end()),
                   litmus::MinCycleLocations, litmus::MaxCycleLocations);
    cycle.name = "camp";
    for (int i = 0; i < n; ++i) {
        const int v = variants[size_t(i)];
        const int head = locs[size_t((i + 1) % n)];
        const int tail = locs[size_t(i)];
        cycle.edges.push_back(litmus::variantEdge(
            v, ((head - tail) % cycle.numLocations + cycle.numLocations)
                   % cycle.numLocations));
        cycle.name += "_";
        cycle.name += variantToken[v];
        cycle.name += static_cast<char>('a' + head);
    }
    StateHasher h;
    h.add(uint64_t(n));
    for (uint8_t code : codes)
        h.add(code);
    cycle.key = h.digest();
    return cycle;
}

/**
 * Is rotation 0 the lexicographically least among the rotations that
 * end with a communication edge?  Fills @p codes with rotation 0's
 * encoding either way.
 */
bool
isMinimalRotation(const std::vector<int> &variants,
                  const std::vector<int> &locs,
                  std::vector<uint8_t> &codes)
{
    const int n = static_cast<int>(variants.size());
    rotationCodes(variants, locs, 0, codes);
    std::vector<uint8_t> other;
    for (int r = 1; r < n; ++r) {
        // A rotation is a lowering candidate only when its last edge
        // (the one closing back to its event 0) is communication.
        if (!isCommV(variants[size_t((r + n - 1) % n)]))
            continue;
        rotationCodes(variants, locs, r, other);
        if (std::lexicographical_compare(other.begin(), other.end(),
                                         codes.begin(), codes.end())) {
            return false;
        }
    }
    return true;
}

/** Depth-first enumeration of one cycle length. */
class Enumerator
{
  public:
    Enumerator(const EnumerateOptions &options,
               const std::function<bool(const CanonicalCycle &)> &sink,
               EnumerateStats &stats)
        : opt(options), emit(sink), stats(stats)
    {
    }

    /** False when the sink asked to stop. */
    bool
    run(int length)
    {
        n = length;
        variants.assign(size_t(n), 0);
        locs.assign(size_t(n), 0);
        commCount = 0;
        maxLabel = 0;
        loads = 0;
        stores = 0;
        step(0);
        return !stopped;
    }

  private:
    /** Choose edge @p i (and the location of event i + 1). */
    void
    step(int i)
    {
        if (stopped)
            return;
        if (i == n - 1) {
            // The closing edge: communication only (the canonical
            // rotation ends with it), returning to event 0's location.
            if (locs[size_t(n - 1)] != 0)
                return;
            if (commCount + 1 < litmus::MinCycleThreads
                || commCount + 1 > litmus::MaxCycleThreads)
                return;
            for (int v = V_RFE; v <= V_FRE && !stopped; ++v) {
                variants[size_t(i)] = v;
                if (!admitEvent(i))
                    continue;
                finish();
                unadmitEvent(i);
            }
            return;
        }

        for (int v = 0; v < EdgeVariants && !stopped; ++v) {
            if (!opt.fences && isFenceVariant(v))
                continue;
            if (!opt.deps && v >= V_ADDR)
                continue;
            // Interior communication edges must leave room for the
            // mandatory communication closing edge.
            if (isCommV(v) && commCount + 2 > litmus::MaxCycleThreads)
                continue;
            variants[size_t(i)] = v;
            if (!admitEvent(i))
                continue;
            if (isCommV(v)) {
                ++commCount;
                locs[size_t(i + 1)] = locs[size_t(i)];
                step(i + 1);
                --commCount;
            } else {
                const int limit =
                    std::min(maxLabel + 1, litmus::MaxCycleLocations - 1);
                for (int label = 0; label <= limit && !stopped;
                     ++label) {
                    locs[size_t(i + 1)] = label;
                    const int saved = maxLabel;
                    maxLabel = std::max(maxLabel, label);
                    step(i + 1);
                    maxLabel = saved;
                }
            }
            unadmitEvent(i);
        }
    }

    /**
     * Edge @p i was just chosen, fixing event i's kind (its in-edge
     * i-1 and out-edge i are now both known).  Check the kind against
     * the RMW, load/store-budget and fence-side rules and account for
     * it; event 0 is deferred to finish() (its in-edge is the last
     * one).  False leaves the counters untouched.
     */
    bool
    admitEvent(int i)
    {
        if (i == 0)
            return true;
        const CycleEventKind kind =
            eventKind(variants[size_t(i - 1)], variants[size_t(i)]);
        if (!admitKind(kind))
            return false;
        const int in = variants[size_t(i - 1)];
        const int out = variants[size_t(i)];
        if ((isFenceVariant(in) && !fitsAfter(in, kind))
            || (isFenceVariant(out) && !fitsBefore(out, kind))) {
            unadmitKind(kind);
            return false;
        }
        return true;
    }

    void
    unadmitEvent(int i)
    {
        if (i == 0)
            return;
        unadmitKind(
            eventKind(variants[size_t(i - 1)], variants[size_t(i)]));
    }

    bool
    admitKind(CycleEventKind kind)
    {
        if (kind == CycleEventKind::Rmw && !opt.rmws)
            return false;
        // The cycle budgets' loads and stores (an RMW is both).
        const int new_loads = loads + (litmus::readsMemory(kind) ? 1 : 0);
        const int new_stores =
            stores + (litmus::writesMemory(kind) ? 1 : 0);
        if (new_loads > litmus::MaxCycleLoads
            || new_stores > litmus::MaxCycleStores)
            return false;
        loads = new_loads;
        stores = new_stores;
        return true;
    }

    void
    unadmitKind(CycleEventKind kind)
    {
        loads -= litmus::readsMemory(kind) ? 1 : 0;
        stores -= litmus::writesMemory(kind) ? 1 : 0;
    }

    /** All n edges chosen: close the cycle and emit if canonical. */
    void
    finish()
    {
        // Event 0's kind, known only now that its in-edge (the
        // closing communication edge) is fixed.
        const CycleEventKind kind0 =
            eventKind(variants[size_t(n - 1)], variants[0]);
        if (!admitKind(kind0))
            return;
        if (!isFenceVariant(variants[0]) || fitsBefore(variants[0], kind0))
            emitIfCanonical();
        unadmitKind(kind0);
    }

    void
    emitIfCanonical()
    {
        if (!isMinimalRotation(variants, locs, codes)) {
            ++stats.rotationDuplicates;
            return;
        }
        CanonicalCycle cycle = buildCanonical(variants, locs, codes);
        // The symmetry check is cheaper than a lowering and rejects
        // most rotation-canonical cycles, so it runs first: only class
        // representatives are lowered.
        if (opt.canonical == CanonicalForm::Full
            && !isFullCanonical(cycle.edges, cycle.numLocations, opt)) {
            ++stats.symmetryDuplicates;
            return;
        }
        // The lowering has the last word on realisability (register
        // pressure, value encoding); a rejected cycle is counted, not
        // emitted, so every emitted cycle is guaranteed to lower.
        const auto test = litmus::testFromCycle(cycle.name, cycle.edges,
                                                cycle.numLocations);
        if (!test) {
            ++stats.unrealisable;
            return;
        }
        cycle.testFingerprint = litmus::fingerprint(*test);
        ++stats.emitted;
        if (!emit(cycle))
            stopped = true;
    }

    const EnumerateOptions &opt;
    const std::function<bool(const CanonicalCycle &)> &emit;
    EnumerateStats &stats;

    int n = 0;
    std::vector<int> variants;
    std::vector<int> locs;
    std::vector<uint8_t> codes;
    int commCount = 0;
    int maxLabel = 0;
    int loads = 0;
    int stores = 0;
    bool stopped = false;
};

} // namespace

EnumerateStats
enumerateCycles(const EnumerateOptions &options,
                const std::function<bool(const CanonicalCycle &)> &sink)
{
    EnumerateOptions opt = options;
    opt.minLen = std::clamp(opt.minLen, litmus::MinCycleLength,
                            litmus::MaxCycleLength);
    opt.maxLen = std::clamp(opt.maxLen, opt.minLen, litmus::MaxCycleLength);

    EnumerateStats stats;
    // Determinism gate: emission must be a pure function of the
    // options -- length-major, then lexicographically increasing by
    // canonical encoding.  An unordered-container dependency anywhere
    // in the pipeline would scramble this order (and with it a
    // campaign's --limit prefix and verify sample), so assert it on
    // every emission.
    int last_len = 0;
    std::vector<uint8_t> last_codes;
    std::vector<uint8_t> codes;
    const std::function<bool(const CanonicalCycle &)> checked =
        [&](const CanonicalCycle &cycle) {
        const int len = static_cast<int>(cycle.edges.size());
        std::vector<int> variants, locs;
        for (const CycleEdge &edge : cycle.edges)
            variants.push_back(litmus::edgeVariant(edge));
        litmus::walkCycleLocations(cycle.edges, cycle.numLocations, locs);
        rotationCodes(variants, locs, 0, codes);
        GAM_ASSERT(len > last_len
                       || (len == last_len
                           && std::lexicographical_compare(
                               last_codes.begin(), last_codes.end(),
                               codes.begin(), codes.end())),
                   "enumerateCycles: emission order regressed at '%s'",
                   cycle.name.c_str());
        last_len = len;
        last_codes = codes;
        return sink(cycle);
    };

    for (int len = opt.minLen; len <= opt.maxLen; ++len) {
        Enumerator dfs(opt, checked, stats);
        if (!dfs.run(len))
            break;
    }
    return stats;
}

std::optional<CanonicalCycle>
canonicalCycle(const std::vector<CycleEdge> &edges, int numLocations)
{
    const int n = static_cast<int>(edges.size());
    if (n < litmus::MinCycleLength || numLocations < litmus::MinCycleLocations
        || numLocations > litmus::MaxCycleLocations)
        return std::nullopt;

    std::vector<int> variants;
    for (const CycleEdge &edge : edges)
        variants.push_back(litmus::edgeVariant(edge));

    int comm_count = 0;
    for (int v : variants)
        comm_count += isCommV(v) ? 1 : 0;
    if (comm_count < 1)
        return std::nullopt;

    // Walk the location steps exactly as the lowering does; the walk
    // must close back onto event 0's location.
    std::vector<int> locs;
    if (!litmus::walkCycleLocations(edges, numLocations, locs))
        return std::nullopt;

    // Pick the least encoding among the communication-ending
    // rotations, then rebuild the representative from it.
    std::vector<uint8_t> best, codes;
    int best_r = -1;
    for (int r = 0; r < n; ++r) {
        if (!isCommV(variants[size_t((r + n - 1) % n)]))
            continue;
        rotationCodes(variants, locs, r, codes);
        if (best_r < 0
            || std::lexicographical_compare(codes.begin(), codes.end(),
                                            best.begin(), best.end())) {
            best = codes;
            best_r = r;
        }
    }
    if (best_r < 0)
        return std::nullopt;

    std::vector<int> rot_variants(static_cast<size_t>(n));
    std::vector<int> rot_locs(static_cast<size_t>(n));
    int relabel[4] = {-1, -1, -1, -1};
    int next_label = 0;
    for (int j = 0; j < n; ++j) {
        int &slot = relabel[locs[size_t((best_r + j) % n)]];
        if (slot < 0)
            slot = next_label++;
    }
    for (int i = 0; i < n; ++i) {
        rot_variants[size_t(i)] = variants[size_t((best_r + i) % n)];
        rot_locs[size_t(i)] = relabel[locs[size_t((best_r + i) % n)]];
    }
    return buildCanonical(rot_variants, rot_locs, best);
}

} // namespace gam::campaign

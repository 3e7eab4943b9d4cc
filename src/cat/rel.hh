/**
 * @file
 * Bitset-backed sets and binary relations over the events of one
 * candidate execution: the value domain of the cat DSL evaluator.
 *
 * Litmus executions have tens of events, so a relation is an n x n bit
 * matrix stored as 64-bit words, one padded row per event.  Every
 * operator the DSL exposes (union, intersection, difference,
 * composition, closures, inverse, complement, cartesian product,
 * identity restriction) is a handful of word-wide loops; transitive
 * closure is bit-parallel Warshall (OR whole rows), which is what makes
 * fixpoint iteration over `let rec` definitions cheap enough to run per
 * enumerated candidate.
 */

#ifndef GAM_CAT_REL_HH
#define GAM_CAT_REL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gam::cat
{

/** A subset of the n events of one candidate execution. */
class EventSet
{
  public:
    explicit EventSet(size_t n = 0)
        : n_(n), w_((n + 63) / 64, 0)
    {}

    size_t universe() const { return n_; }

    /** Become the empty set over @p n events, keeping the storage
     *  when it is large enough. */
    void
    reset(size_t n)
    {
        n_ = n;
        w_.assign((n + 63) / 64, 0);
    }

    bool
    test(size_t i) const
    {
        return (w_[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(size_t i, bool v = true)
    {
        if (v)
            w_[i >> 6] |= uint64_t(1) << (i & 63);
        else
            w_[i >> 6] &= ~(uint64_t(1) << (i & 63));
    }

    bool empty() const;
    size_t count() const;

    EventSet operator|(const EventSet &o) const;
    /** In-place union (no allocation). */
    EventSet &operator|=(const EventSet &o);
    EventSet operator&(const EventSet &o) const;
    /** Set difference (this \ o). */
    EventSet minus(const EventSet &o) const;
    /** Complement within the universe. */
    EventSet complement() const;

    bool operator==(const EventSet &o) const = default;

    /** Call @p fn with each member index, ascending. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t w = 0; w < w_.size(); ++w) {
            uint64_t bits = w_[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                fn(w * 64 + size_t(b));
                bits &= bits - 1;
            }
        }
    }

  private:
    friend class Rel;
    size_t n_;
    std::vector<uint64_t> w_;
};

/** A binary relation over the n events of one candidate execution. */
class Rel
{
  public:
    explicit Rel(size_t n = 0)
        : n_(n), wpr_((n + 63) / 64), w_(n * wpr_, 0)
    {}

    /** The identity relation. */
    static Rel identity(size_t n);
    /** [S]: the identity restricted to @p s. */
    static Rel diag(const EventSet &s);
    /** a * b: the cartesian product of two sets. */
    static Rel product(const EventSet &a, const EventSet &b);

    size_t universe() const { return n_; }

    /** Become the empty relation over @p n events, keeping the
     *  storage when it is large enough. */
    void
    reset(size_t n)
    {
        n_ = n;
        wpr_ = (n + 63) / 64;
        w_.assign(n * wpr_, 0);
    }

    bool
    test(size_t i, size_t j) const
    {
        return (w_[i * wpr_ + (j >> 6)] >> (j & 63)) & 1;
    }

    void
    set(size_t i, size_t j, bool v = true)
    {
        if (v)
            w_[i * wpr_ + (j >> 6)] |= uint64_t(1) << (j & 63);
        else
            w_[i * wpr_ + (j >> 6)] &= ~(uint64_t(1) << (j & 63));
    }

    bool empty() const;
    size_t count() const;

    Rel operator|(const Rel &o) const;
    Rel operator&(const Rel &o) const;
    /** Relation difference (this \ o). */
    Rel minus(const Rel &o) const;
    /** Complement within universe x universe. */
    Rel complement() const;
    /** Relational composition (this ; o). */
    Rel compose(const Rel &o) const;
    /** r^-1. */
    Rel inverse() const;
    /** r+ (transitive closure, bit-parallel Warshall). */
    Rel transitiveClosure() const;
    /** r* (reflexive-transitive closure). */
    Rel reflexiveTransitiveClosure() const;

    /** Is the relation free of (i, i) pairs? */
    bool irreflexive() const;
    /** Is the relation, viewed as a digraph, cycle-free? */
    bool acyclic() const;

    /** Add every member of @p from as a predecessor of event @p j. */
    void addColumn(const EventSet &from, size_t j);

    /**
     * Add u -> v to this transitively closed relation and keep it
     * closed: OR the successor row of v into u and every predecessor
     * of u.  False, leaving the relation unchanged, when the edge
     * closes a cycle (including u == v).  The online cycle detection
     * of the axiomatic filter and the compiled .cat filter both
     * extend their reachability one edge at a time this way.
     */
    bool addClosedEdge(size_t u, size_t v);

    bool operator==(const Rel &o) const = default;

  private:
    uint64_t *row(size_t i) { return w_.data() + i * wpr_; }
    const uint64_t *row(size_t i) const { return w_.data() + i * wpr_; }
    /** Zero the padding bits beyond column n_ - 1. */
    void maskTail();

    size_t n_;
    size_t wpr_; ///< words per row
    std::vector<uint64_t> w_;
};

} // namespace gam::cat

#endif // GAM_CAT_REL_HH

/**
 * @file
 * Syntactic dependency relations over a committed trace: data dependency
 * <ddep (Definition 4) and address dependency <adep (Definition 5).
 *
 * Both are last-writer relations: I1 <ddep I2 when I2 reads a register
 * that I1 is the most recent program-order writer of.  They ignore the
 * PC and the hard-wired zero register, per the paper.
 */

#ifndef GAM_MODEL_DEPS_HH
#define GAM_MODEL_DEPS_HH

#include <vector>

#include "model/trace.hh"

namespace gam::model
{

/** Dense boolean relation over trace indices. */
class Relation
{
  public:
    explicit Relation(size_t n) : n(n), bits(n * n, false) {}

    bool operator()(size_t i, size_t j) const { return bits[i * n + j]; }
    void set(size_t i, size_t j, bool v = true) { bits[i * n + j] = v; }
    size_t size() const { return n; }

    /** In-place transitive closure (Floyd-Warshall). */
    void transitiveClose();

    /** All (i, j) pairs with i related to j. */
    std::vector<std::pair<size_t, size_t>> pairs() const;

  private:
    size_t n;
    std::vector<bool> bits;
};

/**
 * Data dependency <ddep (Definition 4): ddep(i, j) iff i <po j, some
 * register in WS(i) ∩ RS(j) is not overwritten between them.
 */
Relation dataDeps(const Trace &trace);

/**
 * Address dependency <adep (Definition 5): like <ddep but with RS
 * replaced by ARS (registers used for address computation).
 */
Relation addrDeps(const Trace &trace);

} // namespace gam::model

#endif // GAM_MODEL_DEPS_HH

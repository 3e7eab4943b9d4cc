/**
 * @file
 * Compact visited-state sets for the explorer.
 *
 * The seed explorer memoised states in a std::unordered_set<std::string>,
 * paying one heap-allocated text encoding per state plus string hashing
 * and comparison on every probe.  StateSet interns each state as a single
 * 64-bit fingerprint in an open-addressing table: 8 bytes per state, no
 * per-insert allocation, and probes that touch one cache line in the
 * common case.
 *
 * Interning is lossy in principle (two distinct states could collide in
 * 64 bits), but with a full-avalanche fingerprint the expected collision
 * count over N states is N^2 / 2^65 -- about 5e-6 for the ~10^7-state
 * budget this library uses, and a collision merely prunes one duplicate
 * subtree.  The equivalence tests compare interned exploration against
 * the axiomatic checker on every suite test, which would surface any
 * outcome-changing collision.
 */

#ifndef GAM_OPERATIONAL_STATE_SET_HH
#define GAM_OPERATIONAL_STATE_SET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gam::operational
{

/** Open-addressing set of 64-bit state fingerprints. */
class StateSet
{
  public:
    explicit StateSet(size_t initial_capacity = 1024)
    {
        size_t cap = 16;
        while (cap < initial_capacity)
            cap <<= 1;
        slots.assign(cap, EMPTY);
    }

    /** @return true when @p key was not yet present. */
    bool
    insert(uint64_t key)
    {
        // EMPTY marks free slots; remap a genuine EMPTY fingerprint.
        if (key == EMPTY)
            key = 0x9e3779b97f4a7c15ull;
        if ((count + 1) * 10 >= slots.size() * 7)
            grow();
        const size_t mask = slots.size() - 1;
        size_t i = key & mask;
        while (slots[i] != EMPTY) {
            if (slots[i] == key)
                return false;
            i = (i + 1) & mask;
        }
        slots[i] = key;
        ++count;
        return true;
    }

    size_t size() const { return count; }

  private:
    static constexpr uint64_t EMPTY = 0;

    void
    grow()
    {
        std::vector<uint64_t> old = std::move(slots);
        slots.assign(old.size() * 2, EMPTY);
        const size_t mask = slots.size() - 1;
        for (uint64_t key : old) {
            if (key == EMPTY)
                continue;
            size_t i = key & mask;
            while (slots[i] != EMPTY)
                i = (i + 1) & mask;
            slots[i] = key;
        }
    }

    std::vector<uint64_t> slots;
    size_t count = 0;
};

} // namespace gam::operational

#endif // GAM_OPERATIONAL_STATE_SET_HH

/**
 * @file
 * Exhaustive state-space exploration of an abstract machine.
 *
 * The explorer enumerates every reachable terminal state over all rule
 * interleavings (and all speculation choices), memoising visited states
 * compactly: each state is interned as a 64-bit fingerprint in a
 * StateSet instead of storing its full text encoding (see
 * state_set.hh for the collision analysis).  Machines stream their
 * state words into the fingerprint through hashInto(StateHasher&), so
 * no string is built per state.
 *
 * exploreAll() is the engine; exploreAllStringSet() walks the same
 * states memoising full encode() strings, the exact reference the
 * interning is held to.  Any machine type with enabledRules()/fire()/
 * terminal()/outcome()/encode()/hashInto() can be explored.
 */

#ifndef GAM_OPERATIONAL_EXPLORER_HH
#define GAM_OPERATIONAL_EXPLORER_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/hashing.hh"
#include "base/logging.hh"
#include "litmus/outcome.hh"
#include "operational/state_set.hh"

namespace gam::operational
{

/** 64-bit fingerprint of a machine state, hashed from its state words. */
template <typename Machine>
uint64_t
stateFingerprint(const Machine &m)
{
    StateHasher h;
    m.hashInto(h);
    return h.digest();
}

/** Result of an exploration. */
struct ExploreResult
{
    litmus::OutcomeSet outcomes;
    /** States expanded; never exceeds the max_states budget. */
    uint64_t statesVisited = 0;
    /** False when the state budget was exhausted first. */
    bool complete = true;
};

namespace detail
{

/**
 * Depth-first walk from @p initial; @p remember(state) records a state
 * and returns true when it was not yet visited.
 */
template <typename Machine, typename Remember>
ExploreResult
explore(const Machine &initial, uint64_t max_states, Remember remember)
{
    ExploreResult result;
    std::vector<Machine> stack;
    stack.push_back(initial);
    remember(initial);

    while (!stack.empty()) {
        if (result.statesVisited >= max_states) {
            result.complete = false;
            break;
        }
        Machine m = std::move(stack.back());
        stack.pop_back();
        ++result.statesVisited;

        auto rules = m.enabledRules();
        if (rules.empty()) {
            if (m.terminal()) {
                result.outcomes.insert(m.outcome());
            } else {
                panic("abstract machine deadlocked in a non-terminal "
                      "state: %s", m.encode().c_str());
            }
            continue;
        }
        for (const auto &rule : rules) {
            Machine next = m;
            next.fire(rule);
            if (remember(next))
                stack.push_back(std::move(next));
        }
    }
    return result;
}

} // namespace detail

/**
 * Exhaustively explore @p initial.
 *
 * Truncation is exact: when the budget runs out no further state is
 * expanded, statesVisited never exceeds @p max_states, and complete is
 * false iff unexpanded states were dropped.
 *
 * @param initial    the machine's start state (copied per transition)
 * @param max_states visited-state budget
 */
template <typename Machine>
ExploreResult
exploreAll(const Machine &initial, uint64_t max_states = 20'000'000)
{
    StateSet visited;
    return detail::explore(initial, max_states, [&](const Machine &m) {
        return visited.insert(stateFingerprint(m));
    });
}

/**
 * exploreAll() memoising full text encodings in a
 * std::unordered_set<std::string> instead of fingerprints: the exact
 * reference the interned engine is tested and benchmarked against; not
 * used on any hot path.
 */
template <typename Machine>
ExploreResult
exploreAllStringSet(const Machine &initial,
                    uint64_t max_states = 20'000'000)
{
    std::unordered_set<std::string> visited;
    return detail::explore(initial, max_states, [&](const Machine &m) {
        return visited.insert(m.encode()).second;
    });
}

} // namespace gam::operational

#endif // GAM_OPERATIONAL_EXPLORER_HH

/**
 * @file
 * LitmusTest: a small multi-threaded program plus an asked-about final
 * condition and the paper's expected verdict per memory model.
 */

#ifndef GAM_LITMUS_TEST_HH
#define GAM_LITMUS_TEST_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/mem_image.hh"
#include "isa/program.hh"
#include "litmus/outcome.hh"
#include "model/kind.hh"

namespace gam::litmus
{

/** A required final register value (conjunct of the test condition). */
struct RegConstraint
{
    int tid;
    isa::Reg reg;
    isa::Value value;
};

/** A required final memory value (conjunct of the test condition). */
struct MemConstraint
{
    isa::Addr addr;
    isa::Value value;
};

/** A litmus test with its paper-documented verdicts. */
struct LitmusTest
{
    std::string name;
    /** Where in the paper this test appears (e.g. "Figure 13a"). */
    std::string paperRef;
    std::string description;

    std::vector<isa::Program> threads;
    isa::MemImage initialMem;
    /** Named shared locations, for pretty printing. */
    std::vector<std::pair<std::string, isa::Addr>> locations;

    /** The asked-about behavior (conjunction of all constraints). */
    std::vector<RegConstraint> regCond;
    std::vector<MemConstraint> memCond;

    /**
     * Paper verdict per model: true = the behavior is allowed.
     * Models not listed make no claim for this test.
     */
    std::map<model::ModelKind, bool> expected;

    /**
     * Registers whose final value an engine must report.  finalize()
     * defaults this to every register any thread writes.
     */
    std::vector<std::pair<int, isa::Reg>> observedRegs;
    /**
     * Memory addresses whose final value an engine must report.
     * finalize() defaults this to all named locations.
     */
    std::vector<isa::Addr> addressUniverse;

    /** Fill in defaulted fields; must be called after construction. */
    void finalize();

    /**
     * Check that every engine in this library can run the test: at
     * least one thread, threads short enough for the StoreId encoding,
     * registers in range, branch targets strictly forward (the
     * axiomatic checker requires loop-free programs), and all
     * constraint/observation references resolvable (thread ids in
     * range, 8-byte-aligned addresses).  Returns a diagnostic on the
     * first violation, nullopt when the test is runnable.
     *
     * Untrusted tests (parsed from text or freshly generated) must
     * pass this check before being handed to a machine or checker;
     * the engines themselves still abort on malformed input.
     */
    std::optional<std::string> check() const;

    /** Does @p outcome satisfy the test's condition? */
    bool conditionMatches(const Outcome &outcome) const;

    /** Render the test (threads side by side) for display. */
    std::string toString() const;
};

/**
 * 64-bit fingerprint of everything that can influence an engine's
 * decision: thread code, initial memory, the asked-about condition and
 * the observation sets.  Metadata (name, description, paper reference,
 * recorded verdicts, location names) is deliberately excluded, so a
 * renamed or re-annotated copy of a test hashes identically -- the
 * property the DecisionCache keys on (see harness/decision.hh).
 */
uint64_t fingerprint(const LitmusTest &test);

/**
 * Convenience builder used by the suite and by tests/examples.
 *
 *     LitmusTest t = LitmusBuilder("mp", "Figure x")
 *         .location("a", 0x1000).location("b", 0x1008)
 *         .thread(p1).thread(p2)
 *         .requireReg(1, R(1), 1)
 *         .expect(ModelKind::GAM, false)
 *         .done();
 */
class LitmusBuilder
{
  public:
    LitmusBuilder(std::string name, std::string paper_ref,
                  std::string description = "");

    LitmusBuilder &location(const std::string &name, isa::Addr addr);
    LitmusBuilder &thread(isa::Program program);
    LitmusBuilder &requireReg(int tid, isa::Reg reg, isa::Value value);
    LitmusBuilder &requireMem(isa::Addr addr, isa::Value value);
    /** Observe register @p reg of thread @p tid.  Once any register is
     *  observed, finalize() no longer observes every written one. */
    LitmusBuilder &observe(int tid, isa::Reg reg);
    LitmusBuilder &expect(model::ModelKind kind, bool allowed);
    LitmusTest done();

  private:
    LitmusTest test;
};

} // namespace gam::litmus

#endif // GAM_LITMUS_TEST_HH

/**
 * @file
 * The SC abstract machine (paper Figure 1): processors connected
 * directly to a monolithic memory, one processor executing one
 * instruction atomically per step.
 */

#ifndef GAM_OPERATIONAL_SC_MACHINE_HH
#define GAM_OPERATIONAL_SC_MACHINE_HH

#include <array>
#include <string>
#include <vector>

#include "base/hashing.hh"
#include "isa/mem_image.hh"
#include "litmus/test.hh"

namespace gam::operational
{

/** A step of the SC machine: which processor executes next. */
struct ScRule
{
    uint8_t proc;
};

/** Lamport's SC multiprocessor. */
class ScMachine
{
  public:
    explicit ScMachine(const litmus::LitmusTest &test);

    std::vector<ScRule> enabledRules() const;
    void fire(const ScRule &rule);
    bool terminal() const;
    litmus::Outcome outcome() const;
    std::string encode() const;
    /** Allocation-free fingerprint path (same state as encode()). */
    void hashInto(StateHasher &h) const;

  private:
    struct Proc
    {
        uint16_t pc = 0;
        std::array<isa::Value, isa::NUM_REGS> regs{};
    };

    bool procDone(size_t p) const;

    const litmus::LitmusTest &test;
    std::vector<Proc> procs;
    isa::MemImage memory;
};

} // namespace gam::operational

#endif // GAM_OPERATIONAL_SC_MACHINE_HH

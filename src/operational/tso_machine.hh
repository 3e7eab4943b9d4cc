/**
 * @file
 * A TSO abstract machine: the SC machine plus a FIFO store buffer per
 * processor (Section II-B's "atomic memory relaxed by a little").
 * Loads forward from the youngest matching entry of their own buffer;
 * FenceSL (and therefore the full fence) drains the buffer.
 */

#ifndef GAM_OPERATIONAL_TSO_MACHINE_HH
#define GAM_OPERATIONAL_TSO_MACHINE_HH

#include <array>
#include <deque>
#include <string>
#include <vector>

#include "base/hashing.hh"
#include "isa/mem_image.hh"
#include "litmus/test.hh"

namespace gam::operational
{

/** A step of the TSO machine. */
struct TsoRule
{
    enum Kind : uint8_t {
        Step,   ///< execute the next instruction of this processor
        Drain,  ///< write this processor's oldest buffered store to memory
    };

    uint8_t proc;
    Kind kind;
};

/** SC + per-processor FIFO store buffers. */
class TsoMachine
{
  public:
    explicit TsoMachine(const litmus::LitmusTest &test);

    std::vector<TsoRule> enabledRules() const;
    void fire(const TsoRule &rule);
    bool terminal() const;
    litmus::Outcome outcome() const;
    std::string encode() const;
    /** Allocation-free fingerprint path (same state as encode()). */
    void hashInto(StateHasher &h) const;

  private:
    struct BufferedStore
    {
        isa::Addr addr;
        isa::Value value;
    };

    struct Proc
    {
        uint16_t pc = 0;
        std::array<isa::Value, isa::NUM_REGS> regs{};
        std::deque<BufferedStore> sb;
    };

    bool procDone(size_t p) const;
    /** The next instruction is executable (FenceSL needs an empty SB). */
    bool stepEnabled(size_t p) const;

    const litmus::LitmusTest &test;
    std::vector<Proc> procs;
    isa::MemImage memory;
};

} // namespace gam::operational

#endif // GAM_OPERATIONAL_TSO_MACHINE_HH

#include "litmus/outcome.hh"

#include <algorithm>
#include <sstream>

#include "base/hashing.hh"

namespace gam::litmus
{

void
Outcome::canonicalize()
{
    std::sort(regs.begin(), regs.end());
    std::sort(mem.begin(), mem.end());
}

std::string
Outcome::toString() const
{
    std::ostringstream os;
    bool first = true;
    for (const auto &r : regs) {
        if (!first)
            os << " ";
        first = false;
        os << r.tid << ":" << isa::regName(r.reg) << "=" << r.value;
    }
    if (!mem.empty()) {
        os << " |";
        for (const auto &m : mem)
            os << " [0x" << std::hex << m.addr << std::dec << "]="
               << m.value;
    }
    return os.str();
}

uint64_t
outcomeSetHash(const OutcomeSet &outcomes)
{
    StateHasher h;
    for (const Outcome &o : outcomes) {
        for (const auto &r : o.regs) {
            h.add(uint64_t(r.tid));
            h.add(uint64_t(r.reg));
            h.add(uint64_t(r.value));
        }
        h.separator();
        for (const auto &m : o.mem) {
            h.add(uint64_t(m.addr));
            h.add(uint64_t(m.value));
        }
        h.separator();
    }
    return h.digest();
}

} // namespace gam::litmus

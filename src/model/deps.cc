#include "model/deps.hh"

#include <algorithm>

namespace gam::model
{

void
Relation::transitiveClose()
{
    for (size_t k = 0; k < n; ++k) {
        for (size_t i = 0; i < n; ++i) {
            if (!bits[i * n + k])
                continue;
            for (size_t j = 0; j < n; ++j) {
                if (bits[k * n + j])
                    bits[i * n + j] = true;
            }
        }
    }
}

std::vector<std::pair<size_t, size_t>>
Relation::pairs() const
{
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            if ((*this)(i, j))
                out.emplace_back(i, j);
    return out;
}

namespace
{

/**
 * Shared last-writer dependency scan: dep(i, j) iff i < j, WS(i)
 * intersects reads(j), and some such register has no intervening writer.
 */
Relation
lastWriterDeps(const Trace &trace,
               std::vector<isa::Reg> (isa::Instruction::*reads)() const)
{
    const size_t n = trace.size();
    Relation rel(n);
    for (size_t j = 0; j < n; ++j) {
        for (isa::Reg r : (trace[j].instr.*reads)()) {
            // Walk backwards to the most recent writer of r.
            for (size_t i = j; i-- > 0;) {
                auto ws = trace[i].instr.writeSet();
                if (std::find(ws.begin(), ws.end(), r) != ws.end()) {
                    rel.set(i, j);
                    break;
                }
            }
        }
    }
    return rel;
}

} // anonymous namespace

Relation
dataDeps(const Trace &trace)
{
    return lastWriterDeps(trace, &isa::Instruction::readSet);
}

Relation
addrDeps(const Trace &trace)
{
    return lastWriterDeps(trace, &isa::Instruction::addrReadSet);
}

} // namespace gam::model

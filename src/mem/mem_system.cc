#include "mem/mem_system.hh"

namespace gam::mem
{

MemSystem::MemSystem(const MemSystemParams &params)
{
    _dram = std::make_unique<MainMemory>(params.dramLatency,
                                         params.dramBytesPerCycle,
                                         params.l3.lineBytes);
    _l3 = std::make_unique<Cache>(params.l3, _dram.get());
    _l2 = std::make_unique<Cache>(params.l2, _l3.get());
    _l1i = std::make_unique<Cache>(params.l1i, _l2.get());
    _l1d = std::make_unique<Cache>(params.l1d, _l2.get());
}

Cycle
MemSystem::load(isa::Addr addr, Cycle now)
{
    return _l1d->access(addr, false, now, AccessKind::DemandLoad);
}

Cycle
MemSystem::store(isa::Addr addr, Cycle now)
{
    return _l1d->access(addr, true, now, AccessKind::DemandStore);
}

Cycle
MemSystem::fetch(isa::Addr addr, Cycle now)
{
    return _l1i->access(addr, false, now, AccessKind::InstFetch);
}

} // namespace gam::mem

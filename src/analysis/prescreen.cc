#include "analysis/prescreen.hh"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "isa/instruction.hh"
#include "isa/semantics.hh"

namespace gam::analysis
{

using isa::Addr;
using isa::Instruction;
using isa::Opcode;
using isa::Reg;
using isa::Value;
using litmus::LitmusTest;
using model::ModelKind;

namespace
{

/**
 * A bounded set of 64-bit values: either an explicit sorted set of at
 * most Cap values, or Top (any value).  The abstraction is a plain
 * powerset domain with a cardinality widening, so every operation is
 * a sound over-approximation of the concrete operation.  The values
 * live inline, so no abstract operation allocates.
 */
class ValSet
{
  public:
    static constexpr size_t Cap = 24;

    static ValSet
    singleton(Value v)
    {
        ValSet s;
        s.vals[0] = v;
        s.n = 1;
        return s;
    }

    static ValSet
    topSet()
    {
        ValSet s;
        s.top = true;
        return s;
    }

    bool isTop() const { return top; }
    bool isSingleton() const { return !top && n == 1; }
    /** The explicit values, sorted (empty when Top). */
    const Value *begin() const { return vals.data(); }
    const Value *end() const { return vals.data() + n; }

    bool
    contains(Value v) const
    {
        return top || std::binary_search(begin(), end(), v);
    }

    /** Add @p v, widening to Top past Cap values.  @return grew. */
    bool
    add(Value v)
    {
        if (top)
            return false;
        Value *last = vals.data() + n;
        Value *pos = std::lower_bound(vals.data(), last, v);
        if (pos != last && *pos == v)
            return false;
        if (n == Cap) {
            top = true;
            n = 0;
            return true;
        }
        std::copy_backward(pos, last, last + 1);
        *pos = v;
        ++n;
        return true;
    }

    /** Join @p other into this set.  @return grew. */
    bool
    join(const ValSet &other)
    {
        if (top)
            return false;
        if (other.top) {
            top = true;
            n = 0;
            return true;
        }
        bool grew = false;
        for (Value v : other)
            grew |= add(v);
        return grew;
    }

  private:
    std::array<Value, Cap> vals{}; ///< sorted, unique: the first n
    uint8_t n = 0;                 ///< 0 and !top: bottom
    bool top = false;
};

/** Pointwise map of @p f over @p s (Top maps to Top). */
template <typename F>
ValSet
mapSet(const ValSet &s, F f)
{
    if (s.isTop())
        return ValSet::topSet();
    ValSet out;
    for (Value v : s)
        out.add(f(v));
    return out;
}

/** Pointwise map of @p f over the product of two sets. */
template <typename F>
ValSet
mapSet2(const ValSet &a, const ValSet &b, F f)
{
    if (a.isTop() || b.isTop())
        return ValSet::topSet();
    ValSet out;
    for (Value va : a) {
        for (Value vb : b) {
            out.add(f(va, vb));
            if (out.isTop())
                return out;
        }
    }
    return out;
}

/** Abstract register file. */
using RegFile = std::array<ValSet, isa::NUM_REGS>;

void
joinFile(RegFile &dst, const RegFile &src)
{
    for (size_t r = 0; r < dst.size(); ++r)
        dst[r].join(src[r]);
}

/**
 * Per-address universes of values stores can write, iterated to a
 * cross-thread fixpoint.  A store whose address set saturates
 * contributes to every address through the wild bucket.
 */
struct Universe
{
    std::map<Addr, ValSet> perAddr;
    bool wildStore = false;
    ValSet wildVals;
};

/**
 * A reachable memory access, with its address when the value fixpoint
 * pins it to one value: all screen() reads.
 */
struct Access
{
    size_t index = 0;
    std::optional<Addr> addr;
};

struct ValueAnalysis
{
    const LitmusTest &test;
    Universe uni;
    /** The universe changed during the current round. */
    bool changed = false;
    bool bailed = false;

    /** Abstract register file at each thread's exit (final pass). */
    std::vector<std::optional<RegFile>> exits;
    /** Each thread's reachable memory accesses (final pass). */
    std::vector<std::vector<Access>> accesses;

    /** interpretThread()'s running state, reused across passes. */
    RegFile cur;
    /** States branched forward to instructions not yet reached. */
    std::vector<std::pair<size_t, RegFile>> arrivals;

    explicit ValueAnalysis(const LitmusTest &t) : test(t) {}

    /** Values a load with abstract address set @p addrs can observe. */
    ValSet
    loadFrom(const ValSet &addrs) const
    {
        if (addrs.isTop())
            return ValSet::topSet();
        ValSet out;
        for (Value a : addrs) {
            if (a & 7)
                continue; // no well-formed execution reaches it
            out.add(test.initialMem.load(a));
            auto it = uni.perAddr.find(a);
            if (it != uni.perAddr.end())
                out.join(it->second);
        }
        if (uni.wildStore)
            out.join(uni.wildVals);
        return out;
    }

    /** All values the final memory word at @p a can hold. */
    ValSet
    finalMemValues(Addr a) const
    {
        ValSet out;
        out.add(test.initialMem.load(a));
        auto it = uni.perAddr.find(a);
        if (it != uni.perAddr.end())
            out.join(it->second);
        if (uni.wildStore)
            out.join(uni.wildVals);
        return out;
    }

    void
    contributeStore(const ValSet &addrs, const ValSet &data)
    {
        if (addrs.isTop()) {
            changed |= !uni.wildStore;
            uni.wildStore = true;
            changed |= uni.wildVals.join(data);
            return;
        }
        for (Value a : addrs) {
            if (a & 7)
                continue;
            auto [it, fresh] = uni.perAddr.try_emplace(a);
            changed |= it->second.join(data) || fresh;
        }
    }

    ValSet
    addrSetOf(const Instruction &in) const
    {
        return mapSet(cur[size_t(in.src1)], [&](Value base) {
            return Value(uint64_t(in.imm) + uint64_t(base));
        });
    }

    /** Fold the states that branched to @p k into the running state. */
    void
    arrive(size_t k, bool &live)
    {
        for (auto &[target, state] : arrivals) {
            if (target != k)
                continue;
            if (live)
                joinFile(cur, state);
            else
                cur = state;
            live = true;
        }
    }

    /**
     * One abstract pass over thread @p tid, joining over all forward
     * branch outcomes.  Contributes store values to the universe; when
     * @p record, also captures the exit state and the accesses.
     */
    void
    interpretThread(size_t tid, bool record)
    {
        const isa::Program &prog = test.threads[tid];
        const size_t n = prog.size();
        cur.fill(ValSet::singleton(0));
        arrivals.clear();
        bool live = true;

        for (size_t k = 0; k < n && !bailed; ++k) {
            arrive(k, live);
            if (!live)
                continue; // statically unreachable
            const Instruction &in = prog[k];

            auto branchTo = [&](int64_t target) {
                if (target <= int64_t(k) || target > int64_t(n)) {
                    bailed = true; // engines require forward targets
                    return;
                }
                for (auto &[t, state] : arrivals) {
                    if (t == size_t(target)) {
                        joinFile(state, cur);
                        return;
                    }
                }
                arrivals.emplace_back(size_t(target), cur);
            };

            if (record && in.isMem()) {
                const ValSet addrs = addrSetOf(in);
                accesses[tid].push_back(
                    {k, addrs.isSingleton()
                            ? std::optional<Addr>(*addrs.begin())
                            : std::nullopt});
            }
            if (in.isRegToReg() || in.op == Opcode::LI) {
                cur[size_t(in.dst)] = mapSet2(
                    cur[size_t(in.src1)], cur[size_t(in.src2)],
                    [&](Value a, Value b) {
                        return isa::evalRegToReg(in, a, b);
                    });
            } else if (in.op == Opcode::LD) {
                cur[size_t(in.dst)] = loadFrom(addrSetOf(in));
            } else if (in.op == Opcode::ST) {
                contributeStore(addrSetOf(in), cur[size_t(in.src2)]);
            } else if (in.isRmw()) {
                const ValSet addrs = addrSetOf(in);
                const ValSet loaded = loadFrom(addrs);
                contributeStore(addrs,
                                mapSet2(loaded, cur[size_t(in.src2)],
                                        [&](Value old_v, Value s2) {
                                            return isa::evalRmwStored(
                                                in, old_v, s2);
                                        }));
                cur[size_t(in.dst)] = loaded;
            } else if (in.isCondBranch()) {
                branchTo(in.imm); // both directions stay joined
            } else if (in.op == Opcode::JMP) {
                branchTo(in.imm);
                live = false;
            } else if (in.op == Opcode::HALT) {
                if (record)
                    exitWith(tid);
                live = false;
            }
            // NOP and FENCE leave the register file untouched.
        }
        arrive(n, live);
        if (record && live)
            exitWith(tid);
    }

    void
    exitWith(size_t tid)
    {
        std::optional<RegFile> &state = exits[tid];
        if (state)
            joinFile(*state, cur);
        else
            state = cur;
    }

    /** @return false when the analysis bailed (make no claims). */
    bool
    run()
    {
        const size_t nthreads = test.threads.size();
        // Universes only grow and saturate at Cap values per address;
        // the loop terminates long before the safety bound.
        for (int round = 0; round < 100 && !bailed; ++round) {
            changed = false;
            for (size_t tid = 0; tid < nthreads; ++tid)
                interpretThread(tid, false);
            if (!changed)
                break;
        }
        if (bailed)
            return false;
        exits.assign(nthreads, std::nullopt);
        accesses.assign(nthreads, {});
        for (size_t tid = 0; tid < nthreads; ++tid)
            interpretThread(tid, true);
        return !bailed;
    }
};

// ----------------------------------------------------- value cover

/**
 * A condition conjunct whose required value lies outside the abstract
 * cover can never be satisfied.  Returns a justification, or nullopt.
 */
std::optional<std::string>
valueCoverForbidden(const ValueAnalysis &va)
{
    const LitmusTest &test = va.test;
    for (const auto &rc : test.regCond) {
        if (rc.tid < 0 || size_t(rc.tid) >= test.threads.size()
            || rc.reg < 0 || rc.reg >= isa::NUM_REGS) {
            return std::nullopt; // malformed; let the engine assert
        }
        const auto &ex = va.exits[size_t(rc.tid)];
        if (!ex)
            continue;
        const ValSet &s = (*ex)[size_t(rc.reg)];
        if (!s.contains(rc.value)) {
            std::ostringstream os;
            os << "no execution can leave "
               << isa::regName(rc.reg) << " of thread " << rc.tid
               << " holding " << rc.value;
            return os.str();
        }
    }
    for (const auto &mc : test.memCond) {
        if (mc.addr & 7)
            return std::nullopt;
        if (!va.finalMemValues(mc.addr).contains(mc.value)) {
            std::ostringstream os;
            os << "no execution can leave [0x" << std::hex << mc.addr
               << std::dec << "] holding " << mc.value;
            return os.str();
        }
    }
    return std::nullopt;
}

// ------------------------------------------------------ sc delegate

static_assert(isa::NUM_REGS <= 64, "register masks are 64-bit");

/** Does any register of @p regs lie in the mask @p mask? */
bool
readsAny(const std::vector<Reg> &regs, uint64_t mask)
{
    for (Reg r : regs)
        if (mask >> r & 1)
            return true;
    return false;
}

/**
 * Is the po-adjacent memory pair (@p x, @p y) of a branchless thread
 * provably preserved program order under @p model?
 */
bool
pairPreserved(const isa::Program &prog, ModelKind model, const Access &x,
              const Access &y)
{
    const Instruction &a = prog[x.index];
    const Instruction &b = prog[y.index];

    // Walk the instructions between the pair.  A FenceXY with matching
    // endpoint types orders it (FenceOrd / the TSO fence rule); `flow`
    // is the registers a's loaded value reaches, the static po-forward
    // flow cat/exec.cc computes syntactic dependencies from.
    uint64_t flow = a.isLoad() && a.dst != isa::REG_ZERO
        ? uint64_t(1) << a.dst : 0;
    for (size_t k = x.index + 1; k < y.index; ++k) {
        const Instruction &f = prog[k];
        if (f.isFence() && a.isMemType(isa::fencePre(f.fence))
            && b.isMemType(isa::fencePost(f.fence))) {
            return true;
        }
        if ((f.isRegToReg() || f.op == Opcode::LI)
            && f.dst != isa::REG_ZERO) {
            const uint64_t bit = uint64_t(1) << f.dst;
            flow = readsAny(f.readSet(), flow) ? flow | bit : flow & ~bit;
        }
    }
    if (model == ModelKind::TSO) {
        // Everything but the pure-store -> pure-load relaxation.
        return !(a.isStore() && !a.isRmw() && b.isLoad() && !b.isRmw());
    }

    // GAM0 / GAM Definition 6 cases.  AddrSt and SAStLd order a pair
    // through an access po-between its ends, and a po-adjacent pair
    // has none, so neither applies here.
    const bool sameAddr = x.addr && y.addr && *x.addr == *y.addr;
    // SAMemSt: a store after an older same-address access.
    if (b.isStore() && sameAddr)
        return true;
    // RegRAW: the pair's own address/data dependency.
    if (readsAny(b.addrReadSet(), flow) || readsAny(b.dataReadSet(), flow))
        return true;
    // SALdLd (GAM only): consecutive same-address loads, with no
    // same-address store between (there is no access between).
    return model == ModelKind::GAM && a.isLoad() && b.isLoad()
        && sameAddr;
}

/**
 * True when po restricted to memory events is provably inside ppo+,
 * making the model's ordering axiom coincide with SC's.
 * @p accesses holds each thread's reachable memory accesses.
 */
bool
delegates(const LitmusTest &test,
          const std::vector<std::vector<Access>> &accesses,
          ModelKind model)
{
    for (size_t tid = 0; tid < test.threads.size(); ++tid) {
        const isa::Program &prog = test.threads[tid];
        // Scan the whole program: a branch can jump over a HALT, so
        // instructions after one may still execute.
        bool branchy = false;
        size_t memCount = 0;
        for (size_t k = 0; k < prog.size(); ++k) {
            branchy |= prog[k].isBranch();
            memCount += prog[k].isMem();
        }
        if (branchy) {
            // Path-sensitive ordering evidence is out of scope; a
            // thread with at most one access has no pair to order.
            if (memCount <= 1)
                continue;
            return false;
        }
        // Branchless: execution is the static prefix up to the first
        // HALT, exactly the accesses the final pass reached.
        const std::vector<Access> &mems = accesses[tid];
        for (size_t t = 0; t + 1 < mems.size(); ++t) {
            if (!pairPreserved(prog, model, mems[t], mems[t + 1]))
                return false;
        }
    }
    return true;
}

} // anonymous namespace

struct PrescreenAnalysis::Impl
{
    explicit Impl(const LitmusTest &t) : test(t) {}

    const LitmusTest &test;
    /** False when the value fixpoint bailed (make no claims). */
    bool analyzed = false;
    /** The model-independent verdict: Forbidden or Unknown. */
    PrescreenResult base;
    /** ValueAnalysis::accesses of the final pass. */
    std::vector<std::vector<Access>> accesses;
};

PrescreenAnalysis::PrescreenAnalysis(const LitmusTest &test)
    : impl(std::make_unique<Impl>(test))
{
    if (test.threads.empty())
        return;
    // The register files (~9.6 KB each) live only here: once the
    // value-cover verdict is known, only the accesses are kept.
    ValueAnalysis va(test);
    if (!va.run())
        return;
    impl->analyzed = true;
    if (!test.regCond.empty() || !test.memCond.empty()) {
        if (auto why = valueCoverForbidden(va)) {
            impl->base.verdict = PrescreenVerdict::Forbidden;
            impl->base.detail = *why;
        }
    }
    impl->accesses = std::move(va.accesses);
}

PrescreenAnalysis::~PrescreenAnalysis() = default;

PrescreenResult
PrescreenAnalysis::screen(ModelKind model) const
{
    // PerLocSC only orders accesses per location, so its axiom admits
    // out-of-thin-air candidates whose values the value cover assumes
    // unreachable: no claim about it is sound.
    if (model == ModelKind::PerLocSC)
        return {};
    PrescreenResult result = impl->base;
    if (!impl->analyzed || result.verdict == PrescreenVerdict::Forbidden)
        return result;

    if ((model == ModelKind::TSO || model == ModelKind::GAM0
         || model == ModelKind::GAM)
        && delegates(impl->test, impl->accesses, model)) {
        result.verdict = PrescreenVerdict::ScEquivalent;
        result.detail = "every po-adjacent memory pair is "
                        "preserved program order; outcomes equal "
                        "SC's";
    }
    return result;
}

PrescreenResult
prescreen(const LitmusTest &test, ModelKind model)
{
    return PrescreenAnalysis(test).screen(model);
}

} // namespace gam::analysis

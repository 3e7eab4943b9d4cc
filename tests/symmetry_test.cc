/**
 * Tests for the CanonicalForm::Full symmetry quotient
 * (campaign/symmetry.hh): isomorphic and decoration-equivalent specs
 * canonicalize to byte-identical representatives, the quotient's
 * universe counts are pinned next to the rotation-only counts, every
 * emitted representative is a canonicalCycleFull() fixpoint, the
 * per-thread ordering signature agrees with model/ppo.cc, and the
 * quotient preserves verdicts -- exactly up to the pre-existing
 * rotation-witness orientation artifact, which is pinned too.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "axiomatic/enumerate.hh"
#include "campaign/enumerate.hh"
#include "campaign/symmetry.hh"
#include "harness/decision.hh"
#include "litmus/generator.hh"
#include "litmus/test.hh"
#include "model/engine.hh"
#include "model/ppo.hh"

namespace gam::campaign
{
namespace
{

using litmus::CycleEdge;
using model::ModelKind;
using Kind = CycleEdge::Kind;

CycleEdge
edge(Kind kind, int loc_step = 1)
{
    CycleEdge e;
    e.kind = kind;
    e.locStep = loc_step;
    return e;
}

CycleEdge
fence(isa::FenceKind kind)
{
    CycleEdge e;
    e.kind = Kind::PoFence;
    e.fence = kind;
    return e;
}

/** Rotate @p edges left by @p by. */
std::vector<CycleEdge>
rotated(const std::vector<CycleEdge> &edges, size_t by)
{
    std::vector<CycleEdge> out(edges.begin() + by, edges.end());
    out.insert(out.end(), edges.begin(), edges.begin() + by);
    return out;
}

void
expectSameClass(const std::vector<CycleEdge> &a,
                const std::vector<CycleEdge> &b, int locations,
                const std::string &what)
{
    auto ca = canonicalCycleFull(a, locations);
    auto cb = canonicalCycleFull(b, locations);
    ASSERT_TRUE(ca.has_value()) << what;
    ASSERT_TRUE(cb.has_value()) << what;
    EXPECT_EQ(ca->key, cb->key) << what;
    EXPECT_EQ(ca->name, cb->name) << what;
    ASSERT_EQ(ca->edges.size(), cb->edges.size()) << what;
    // Identical representatives lower to identical tests.
    auto ta = litmus::testFromCycle(ca->name, ca->edges, ca->numLocations);
    auto tb = litmus::testFromCycle(cb->name, cb->edges, cb->numLocations);
    ASSERT_TRUE(ta.has_value()) << what;
    ASSERT_TRUE(tb.has_value()) << what;
    EXPECT_EQ(litmus::fingerprint(*ta), litmus::fingerprint(*tb)) << what;
}

// ----------------------------------------------------- isomorphism

TEST(Symmetry, ClassicShapesCanonicalizeWithTheirIsomorphs)
{
    // SB: two store-buffering threads.  Rotating by a thread permutes
    // the threads (and renames the locations with them); reversing the
    // edge list is the palindromic reflection.
    const std::vector<CycleEdge> sb = {
        edge(Kind::Po), edge(Kind::Fre, 0), edge(Kind::Po),
        edge(Kind::Fre, 0)};
    expectSameClass(sb, rotated(sb, 2), 2, "sb thread-permuted");
    expectSameClass(sb, {sb.rbegin(), sb.rend()}, 2, "sb reflected");

    // 2+2W, the other palindrome.
    const std::vector<CycleEdge> w22 = {
        edge(Kind::Po), edge(Kind::Coe, 0), edge(Kind::Po),
        edge(Kind::Coe, 0)};
    expectSameClass(w22, rotated(w22, 2), 2, "2+2w thread-permuted");
    expectSameClass(w22, {w22.rbegin(), w22.rend()}, 2, "2+2w reflected");

    // IRIW: permuting the two reader threads rotates by half.
    const std::vector<CycleEdge> iriw = {
        edge(Kind::Rfe, 0), edge(Kind::Po), edge(Kind::Fre, 0),
        edge(Kind::Rfe, 0), edge(Kind::Po), edge(Kind::Fre, 0)};
    expectSameClass(iriw, rotated(iriw, 3), 2, "iriw thread-permuted");

    // WRC: every rotation -- comm-ending or not -- names the same
    // cycle, including ones starting mid-thread.
    const std::vector<CycleEdge> wrc = {
        edge(Kind::Rfe, 0), edge(Kind::Po), edge(Kind::Rfe, 0),
        edge(Kind::Po), edge(Kind::Fre, 0)};
    for (size_t by = 1; by < wrc.size(); ++by)
        expectSameClass(wrc, rotated(wrc, by), 2,
                        "wrc rotated by " + std::to_string(by));
}

TEST(Symmetry, LoadLoadDecorationsCollapseBySignature)
{
    // Between two loads of different locations: a load-load fence and
    // an address dependency induce the same ordering closure under
    // both pair semantics, a control dependency (no later store to
    // order) the same as plain po.
    using litmus::CycleEventKind;
    const std::vector<CycleEventKind> kinds = {CycleEventKind::Load,
                                               CycleEventKind::Load};
    const std::vector<int> locs = {0, 1};
    const auto plain = threadOrderSignature(kinds, locs, {litmus::V_PO});
    const auto fll = threadOrderSignature(kinds, locs, {litmus::V_FLL});
    const auto addr = threadOrderSignature(kinds, locs, {litmus::V_ADDR});
    const auto ctrl = threadOrderSignature(kinds, locs, {litmus::V_CTRL});
    EXPECT_EQ(fll, addr);
    EXPECT_EQ(plain, ctrl);
    EXPECT_NE(plain, fll);
    // TSO orders load->load regardless; only the GAM family
    // distinguishes the decorated pair.
    EXPECT_EQ(plain.tso, fll.tso);
    EXPECT_NE(plain.gamFamily, fll.gamFamily);
}

TEST(Symmetry, EquivalentDecorationsShareOneRepresentative)
{
    // MP with an address dependency on the reader thread and MP with a
    // load-load fence are the same class; the fence spelling (lowest
    // variant id) is the representative.
    const std::vector<CycleEdge> mp_addr = {
        edge(Kind::Po), edge(Kind::Rfe, 0), edge(Kind::PoAddr),
        edge(Kind::Fre, 0)};
    const std::vector<CycleEdge> mp_fll = {
        edge(Kind::Po), edge(Kind::Rfe, 0), fence(isa::FenceKind::LL),
        edge(Kind::Fre, 0)};
    expectSameClass(mp_addr, mp_fll, 2, "mp addr ~ fll");
    const auto rep = canonicalCycleFull(mp_addr, 2);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->name, "camp_pob_rfeb_flla_frea");

    // A bare control dependency between the loads orders nothing any
    // model can see: the class representative is plain MP.
    const std::vector<CycleEdge> mp_ctrl = {
        edge(Kind::Po), edge(Kind::Rfe, 0), edge(Kind::PoCtrl),
        edge(Kind::Fre, 0)};
    const auto plain = canonicalCycleFull(mp_ctrl, 2);
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(plain->name, "camp_pob_rfeb_poa_frea");
    EXPECT_NE(plain->key, rep->key);
}

TEST(Symmetry, VacuousInteriorLoadContractsAway)
{
    // MP whose reader interposes a plain-po load of a location no one
    // stores to: the Shasha-Snir critical core is MP itself, one edge
    // shorter and one location narrower.
    const std::vector<CycleEdge> fat = {
        edge(Kind::Po), edge(Kind::Rfe, 0), edge(Kind::Po),
        edge(Kind::Po), edge(Kind::Fre, 0)};
    const std::vector<CycleEdge> mp = {
        edge(Kind::Po), edge(Kind::Rfe, 0), edge(Kind::Po),
        edge(Kind::Fre, 0)};
    const auto contracted = canonicalCycleFull(fat, 3);
    const auto plain = canonicalCycleFull(mp, 2);
    ASSERT_TRUE(contracted.has_value());
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(contracted->key, plain->key);
    EXPECT_EQ(contracted->name, plain->name);
    EXPECT_EQ(contracted->edges.size(), 4u);
    EXPECT_EQ(contracted->numLocations, 2);
}

// ------------------------------------------------- universe counts

TEST(Symmetry, PinsQuotientCountsAgainstRotationOnly)
{
    // The exact universe sizes per length bound, Rotation vs Full.
    // Any change to either quotient shows up here first; the ISSUE
    // gate is the len<=6 shrink (182,659 / 42,658 = 4.28x >= 1.5x).
    const struct
    {
        int maxLen;
        uint64_t rotation;
        uint64_t full;
    } pinned[] = {
        {3, 56, 34},
        {4, 905, 397},
        {5, 14'061, 4'433},
        {6, 182'659, 42'658},
    };
    for (const auto &p : pinned) {
        for (CanonicalForm form :
             {CanonicalForm::Rotation, CanonicalForm::Full}) {
            EnumerateOptions o;
            o.maxLen = p.maxLen;
            o.canonical = form;
            const EnumerateStats st =
                enumerateCycles(o, [](const CanonicalCycle &) {
                    return true;
                });
            const uint64_t want =
                form == CanonicalForm::Full ? p.full : p.rotation;
            EXPECT_EQ(st.emitted, want)
                << "len<=" << p.maxLen << " form "
                << (form == CanonicalForm::Full ? "full" : "rotation");
            // The two forms walk the same rotation-canonical stream;
            // Full just rejects non-representatives.
            EXPECT_EQ(st.emitted + st.symmetryDuplicates, p.rotation)
                << "len<=" << p.maxLen;
        }
    }
    // The headline shrink the campaign README advertises.
    EXPECT_GE(double(182'659) / double(42'658), 1.5);
}

TEST(Symmetry, EveryEmittedRepresentativeIsAFixpoint)
{
    EnumerateOptions o;
    o.maxLen = 4;
    o.canonical = CanonicalForm::Full;
    uint64_t checked = 0;
    enumerateCycles(o, [&](const CanonicalCycle &c) {
        const auto again = canonicalCycleFull(c.edges, c.numLocations);
        EXPECT_TRUE(again.has_value()) << c.name;
        if (again) {
            EXPECT_EQ(again->key, c.key) << c.name;
            EXPECT_EQ(again->name, c.name) << c.name;
        }
        EXPECT_TRUE(isFullCanonical(c.edges, c.numLocations, o))
            << c.name;
        ++checked;
        return true;
    });
    EXPECT_EQ(checked, 397u);
}

// ------------------------------------------- signature vs model ppo

/**
 * preservedProgramOrder(@p trace, @p kind) projected onto the trace's
 * memory events: bit i*8+j set when the i-th memory event is ordered
 * before the j-th, as in ThreadOrderSignature.
 */
uint64_t
memoryPpo(const model::Trace &trace, ModelKind kind)
{
    std::vector<size_t> mem;
    for (size_t i = 0; i < trace.size(); ++i)
        if (trace[i].isMem())
            mem.push_back(i);
    const model::Relation ppo = model::preservedProgramOrder(trace, kind);
    uint64_t bits = 0;
    for (size_t i = 0; i < mem.size(); ++i)
        for (size_t j = 0; j < mem.size(); ++j)
            if (ppo(mem[i], mem[j]))
                bits |= 1ull << (i * 8 + j);
    return bits;
}

TEST(Symmetry, OrderSignatureAgreesWithModelPpo)
{
    // The quotient merges decorations by threadOrderSignature(), which
    // restates model/ppo.cc's GAM-family and TSO cases over cycle
    // decorations.  Hold that copy to the model: lower every
    // rotation-canonical cycle of length 3-5, execute it with every
    // load reading the initial value, and compare each thread's
    // signature with its trace's GAM0 and TSO ppo.
    EnumerateOptions o;
    o.minLen = 3;
    o.maxLen = 5;
    o.canonical = CanonicalForm::Rotation;
    uint64_t cycles = 0, threads = 0, differences = 0;
    std::string first;
    enumerateCycles(o, [&](const CanonicalCycle &c) {
        ++cycles;
        const auto test =
            litmus::testFromCycle(c.name, c.edges, c.numLocations);
        EXPECT_TRUE(test.has_value()) << c.name;
        if (!test)
            return true;
        const axiomatic::CandidateBuilder builder(*test, {});
        const std::vector<model::StoreId> initial(
            builder.loadSites().size(), model::InitStore);
        std::vector<axiomatic::CandidateBuilder::ThreadExec> exec;
        axiomatic::CandidateBuilder::Scratch scratch;
        EXPECT_TRUE(builder.computeExecution(initial, exec, scratch))
            << c.name;

        const auto kinds = litmus::cycleEventKinds(c.edges);
        std::vector<int> locs;
        litmus::walkCycleLocations(c.edges, c.numLocations, locs);
        // The t-th po segment of the cycle is thread t.
        size_t tid = 0, start = 0;
        for (size_t end = 0; end < c.edges.size(); ++end) {
            if (!litmus::isCommunication(c.edges[end].kind))
                continue;
            std::vector<int> decorations;
            for (size_t e = start; e < end; ++e)
                decorations.push_back(litmus::edgeVariant(c.edges[e]));
            const ThreadOrderSignature sig = threadOrderSignature(
                {kinds.begin() + long(start), kinds.begin() + long(end) + 1},
                {locs.begin() + long(start), locs.begin() + long(end) + 1},
                decorations);
            const model::Trace &trace = exec.at(tid).trace;
            for (auto [kind, bits] : {std::pair{ModelKind::GAM0,
                                                sig.gamFamily},
                                      std::pair{ModelKind::TSO, sig.tso}}) {
                if (memoryPpo(trace, kind) == bits)
                    continue;
                if (differences++ == 0) {
                    first = c.name + " thread " + std::to_string(tid)
                        + " under " + model::modelName(kind);
                }
            }
            ++threads;
            ++tid;
            start = end + 1;
        }
        EXPECT_EQ(tid, exec.size()) << c.name;
        return true;
    });
    EXPECT_EQ(cycles, 14'061u);
    EXPECT_EQ(threads, 31'252u);
    EXPECT_EQ(differences, 0u) << "first: " << first;
}

// ------------------------------------------------- verdict parity

constexpr ModelKind paritied[] = {
    ModelKind::SC,  ModelKind::TSO, ModelKind::GAM0,
    ModelKind::GAM, ModelKind::ARM, ModelKind::PerLocSC,
};

bool
decideAllowed(const litmus::LitmusTest &test, ModelKind model,
              harness::DecisionCache &cache)
{
    harness::Query q;
    q.test = &test;
    q.model = model;
    q.engine = harness::EngineSelect::Axiomatic;
    return harness::decide(q, &cache).allowed;
}

TEST(Symmetry, QuotientPreservesEveryVerdictAtLengthFour)
{
    // Every rotation-canonical cycle up to length 4 decides exactly as
    // its Full-class representative does, under every axiomatic model.
    // (At length 5 the rotation-witness artifact below kicks in; up to
    // 4 the parity is exact, and this pins it.)
    EnumerateOptions o;
    o.maxLen = 4;
    harness::DecisionCache cache(1 << 16);
    uint64_t compared = 0;
    enumerateCycles(o, [&](const CanonicalCycle &member) {
        const auto rep =
            canonicalCycleFull(member.edges, member.numLocations);
        EXPECT_TRUE(rep.has_value()) << member.name;
        if (!rep)
            return true;
        const auto member_test = litmus::testFromCycle(
            member.name, member.edges, member.numLocations);
        const auto rep_test = litmus::testFromCycle(
            rep->name, rep->edges, rep->numLocations);
        EXPECT_TRUE(member_test.has_value()) << member.name;
        EXPECT_TRUE(rep_test.has_value()) << rep->name;
        if (!member_test || !rep_test)
            return true;
        for (ModelKind model : paritied)
            EXPECT_EQ(decideAllowed(*member_test, model, cache),
                      decideAllowed(*rep_test, model, cache))
                << member.name << " vs " << rep->name << " under "
                << model::modelName(model);
        ++compared;
        return true;
    });
    EXPECT_EQ(compared, 905u);
}

TEST(Symmetry, RotationWitnessOrientationArtifactIsPreExisting)
{
    // The documented parity caveat (symmetry.hh): the lowering's
    // final-memory values orient coe-free same-location store pairs by
    // walk order, a per-rotation choice -- not a property Full
    // introduced.  Witness: two comm-ending rotations of one and the
    // same length-5 rotation-canonical cycle already decide
    // differently under PerLocSC.
    EnumerateOptions o;
    o.minLen = 5;
    o.maxLen = 5;
    std::optional<CanonicalCycle> target;
    enumerateCycles(o, [&](const CanonicalCycle &c) {
        if (c.name == "camp_data_fssb_coeb_data_rfea") {
            target = c;
            return false;
        }
        return true;
    });
    ASSERT_TRUE(target.has_value());

    harness::DecisionCache cache(1 << 12);
    std::vector<bool> verdicts;
    for (size_t by = 0; by < target->edges.size(); ++by) {
        const auto rot = rotated(target->edges, by);
        const Kind last = rot.back().kind;
        if (last != Kind::Rfe && last != Kind::Coe && last != Kind::Fre)
            continue; // the lowering takes comm-ending rotations
        const auto test = litmus::testFromCycle(
            "rot" + std::to_string(by), rot, target->numLocations);
        ASSERT_TRUE(test.has_value()) << by;
        verdicts.push_back(
            decideAllowed(*test, ModelKind::PerLocSC, cache));
    }
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_NE(verdicts[0], verdicts[1]);
}

} // namespace
} // namespace gam::campaign

/**
 * Tests for the abstract machines: rule-level behavior of the GAM
 * machine, explorer verdicts against the paper, the in-order SC/TSO
 * machine, and the eager-fetch exploration reduction.
 */

#include <gtest/gtest.h>

#include "axiomatic/checker.hh"
#include "base/rng.hh"
#include "litmus/generator.hh"
#include "litmus/suite.hh"
#include "operational/explorer.hh"
#include "operational/state_set.hh"
#include "operational/gam_machine.hh"
#include "operational/inorder_machine.hh"

namespace gam::operational
{
namespace
{

using isa::ProgramBuilder;
using isa::R;
using litmus::LitmusTest;
using litmus::testByName;
using model::ModelKind;

litmus::OutcomeSet
exploreModel(const LitmusTest &test, ModelKind kind,
             bool eager_fetch = true)
{
    if (kind == ModelKind::SC || kind == ModelKind::TSO)
        return exploreAll(InOrderMachine(test, kind)).outcomes;
    GamOptions opts;
    opts.kind = kind;
    opts.eagerLocal = eager_fetch;
    return exploreAll(GamMachine(test, opts)).outcomes;
}

bool
allowed(const LitmusTest &test, ModelKind kind)
{
    for (const auto &o : exploreModel(test, kind))
        if (test.conditionMatches(o))
            return true;
    return false;
}

/** Explorer verdicts vs the paper, for every recorded model. */
class OperationalVerdict : public ::testing::TestWithParam<std::string>
{
};

TEST_P(OperationalVerdict, MatchesPaper)
{
    const LitmusTest &test = testByName(GetParam());
    for (const auto &[kind, expected] : test.expected) {
        if (kind == ModelKind::PerLocSC)
            continue; // a property, not a machine
        EXPECT_EQ(allowed(test, kind), expected)
            << test.name << " under " << model::modelName(kind);
    }
}

std::vector<std::string>
allTestNames()
{
    std::vector<std::string> names;
    for (const auto &t : litmus::allTests())
        names.push_back(t.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllLitmusTests, OperationalVerdict,
                         ::testing::ValuesIn(allTestNames()),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (!isalnum(uint8_t(c)))
                                     c = '_';
                             return name;
                         });

TEST(GamMachineRules, SingleThreadRunsToCompletion)
{
    LitmusTest t = litmus::LitmusBuilder("t", "unit")
        .location("a", 0x1000)
        .thread(ProgramBuilder()
                    .li(R(8), 0x1000)
                    .li(R(1), 7)
                    .st(R(8), R(1))
                    .ld(R(2), R(8))
                    .build())
        .requireReg(0, R(2), 7)
        .expect(ModelKind::GAM, true)
        .done();
    auto result = exploreAll(GamMachine(t, {}));
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_TRUE(t.conditionMatches(*result.outcomes.begin()));
    EXPECT_TRUE(result.complete);
}

TEST(GamMachineRules, StoreForwardingSuppliesValue)
{
    // The load must be able to forward from the not-done store: with a
    // single thread the final value is 7 whichever path it takes, so
    // check the *rule* is offered by driving the machine manually.
    LitmusTest t = litmus::LitmusBuilder("t", "unit")
        .location("a", 0x1000)
        .thread(ProgramBuilder()
                    .li(R(8), 0x1000)
                    .li(R(1), 7)
                    .st(R(8), R(1))
                    .ld(R(2), R(8))
                    .build())
        .requireReg(0, R(2), 7)
        .expect(ModelKind::GAM, true)
        .done();

    GamOptions manual;
    manual.eagerLocal = false; // drive every rule kind by hand
    GamMachine m(t, manual);
    // Fetch everything, then resolve operands and addresses.
    auto fire_all_of = [&](GamRule::Kind kind) {
        bool fired = false;
        for (;;) {
            bool any = false;
            for (const auto &r : m.enabledRules()) {
                if (r.kind == kind) {
                    m.fire(r);
                    any = fired = true;
                    break;
                }
            }
            if (!any)
                break;
        }
        return fired;
    };
    EXPECT_TRUE(fire_all_of(GamRule::Fetch));
    EXPECT_TRUE(fire_all_of(GamRule::ExecRegToReg));
    EXPECT_TRUE(fire_all_of(GamRule::ComputeMemAddr));
    EXPECT_TRUE(fire_all_of(GamRule::ComputeStoreData));
    // The store has not executed; the load must still be executable by
    // forwarding (Figure 17 Execute-Load case 2).
    bool load_enabled = false;
    for (const auto &r : m.enabledRules())
        load_enabled |= r.kind == GamRule::ExecLoad;
    EXPECT_TRUE(load_enabled);
    EXPECT_TRUE(fire_all_of(GamRule::ExecLoad));
    EXPECT_TRUE(fire_all_of(GamRule::ExecStore));
    EXPECT_TRUE(m.terminal());
    EXPECT_TRUE(t.conditionMatches(m.outcome()));
}

TEST(GamMachineRules, GamStallsLoadBehindNotDoneSameAddressLoad)
{
    // Two same-address loads: under GAM the younger load's ExecLoad rule
    // must not be enabled while the older one is not done.
    LitmusTest t = litmus::LitmusBuilder("t", "unit")
        .location("a", 0x1000)
        .thread(ProgramBuilder()
                    .li(R(8), 0x1000)
                    .ld(R(1), R(8))
                    .ld(R(2), R(8))
                    .build())
        .requireReg(0, R(1), 0)
        .expect(ModelKind::GAM, true)
        .done();

    GamOptions gam_opts;
    gam_opts.kind = ModelKind::GAM;
    gam_opts.eagerLocal = false;
    GamMachine m(t, gam_opts);
    // Fetch all, execute the li, compute both load addresses.
    auto fire_kind = [&](GamRule::Kind kind, int count) {
        for (int i = 0; i < count; ++i) {
            for (const auto &r : m.enabledRules()) {
                if (r.kind == kind) {
                    m.fire(r);
                    break;
                }
            }
        }
    };
    fire_kind(GamRule::Fetch, 3);
    fire_kind(GamRule::ExecRegToReg, 1);
    fire_kind(GamRule::ComputeMemAddr, 2);

    int exec_load_rules = 0;
    uint16_t which = 0;
    for (const auto &r : m.enabledRules()) {
        if (r.kind == GamRule::ExecLoad) {
            ++exec_load_rules;
            which = r.idx;
        }
    }
    EXPECT_EQ(exec_load_rules, 1); // only the older load may execute
    EXPECT_EQ(which, 1);           // ROB index 1 = the older load
}

TEST(GamMachineRules, Gam0DoesNotStall)
{
    LitmusTest t = litmus::LitmusBuilder("t", "unit")
        .location("a", 0x1000)
        .thread(ProgramBuilder()
                    .li(R(8), 0x1000)
                    .ld(R(1), R(8))
                    .ld(R(2), R(8))
                    .build())
        .requireReg(0, R(1), 0)
        .expect(ModelKind::GAM0, true)
        .done();

    GamOptions opts;
    opts.kind = ModelKind::GAM0;
    opts.eagerLocal = false;
    GamMachine m(t, opts);
    auto fire_kind = [&](GamRule::Kind kind, int count) {
        for (int i = 0; i < count; ++i) {
            for (const auto &r : m.enabledRules()) {
                if (r.kind == kind) {
                    m.fire(r);
                    break;
                }
            }
        }
    };
    fire_kind(GamRule::Fetch, 3);
    fire_kind(GamRule::ExecRegToReg, 1);
    fire_kind(GamRule::ComputeMemAddr, 2);
    int exec_load_rules = 0;
    for (const auto &r : m.enabledRules())
        exec_load_rules += r.kind == GamRule::ExecLoad;
    EXPECT_EQ(exec_load_rules, 2); // both loads independently executable
}

TEST(Explorer, EagerFetchMatchesFullExploration)
{
    // The fetch-first reduction must not change outcome sets.
    for (const char *name : {"dekker", "corr", "lb", "mp", "mp_fenced",
                             "ld_interv_st"}) {
        const LitmusTest &t = testByName(name);
        for (ModelKind kind : {ModelKind::GAM, ModelKind::GAM0}) {
            auto eager = exploreModel(t, kind, true);
            auto full = exploreModel(t, kind, false);
            EXPECT_EQ(eager, full) << name << " under "
                                   << model::modelName(kind);
        }
    }
}

TEST(Explorer, StateBudgetReportsIncomplete)
{
    auto result = exploreAll(GamMachine(testByName("rsw"), {}), 10);
    EXPECT_FALSE(result.complete);
}

TEST(Explorer, StateBudgetIsExact)
{
    // Truncation must be exact: statesVisited never exceeds the
    // budget, and a budget at least the full space size reports
    // complete with the same count as unbounded exploration.
    const GamMachine machine(testByName("rsw"), {});
    const auto full = exploreAll(machine);
    ASSERT_TRUE(full.complete);

    for (uint64_t budget : {uint64_t(1), uint64_t(10),
                            full.statesVisited / 2,
                            full.statesVisited}) {
        auto result = exploreAll(machine, budget);
        EXPECT_LE(result.statesVisited, budget) << "budget " << budget;
        if (budget < full.statesVisited) {
            EXPECT_FALSE(result.complete) << "budget " << budget;
            EXPECT_EQ(result.statesVisited, budget);
        } else {
            EXPECT_TRUE(result.complete);
            EXPECT_EQ(result.statesVisited, full.statesVisited);
        }
    }
}

TEST(Explorer, ThreadLongerThanFortyEightInstructionsCompletes)
{
    // MP whose writer runs 50 register-only instructions between its
    // two stores (55 instructions in all).  Every GAM-family machine
    // must explore it to completion: the GAM0 and GAM sets equal the
    // checker's, and ARM's conservative machine (see gam_machine.hh)
    // stays inside the checker's set.  Alpha* has no axioms; it must
    // reach the unfenced MP outcome.
    ProgramBuilder writer;
    writer.li(R(8), 0x1000).li(R(9), 0x1008).li(R(1), 1).st(R(8), R(1));
    for (int i = 0; i < 50; ++i)
        writer.addi(R(10), R(10), 1);
    writer.st(R(9), R(1));
    const LitmusTest t = litmus::LitmusBuilder("mp_long", "unit")
        .location("a", 0x1000)
        .location("b", 0x1008)
        .thread(writer.build())
        .thread(ProgramBuilder()
                    .li(R(8), 0x1000)
                    .li(R(9), 0x1008)
                    .ld(R(1), R(9))
                    .ld(R(2), R(8))
                    .build())
        .requireReg(1, R(1), 1)
        .requireReg(1, R(2), 0)
        .done();
    ASSERT_EQ(t.threads[0].size(), 55u);

    for (ModelKind kind : {ModelKind::GAM0, ModelKind::GAM, ModelKind::ARM,
                           ModelKind::AlphaStar}) {
        const std::string what = model::modelName(kind);
        GamOptions opts;
        opts.kind = kind;
        const ExploreResult result = exploreAll(GamMachine(t, opts));
        ASSERT_TRUE(result.complete) << what;
        if (kind == ModelKind::AlphaStar) {
            bool weak = false;
            for (const auto &o : result.outcomes)
                weak |= t.conditionMatches(o);
            EXPECT_TRUE(weak) << what;
            continue;
        }
        const litmus::OutcomeSet axioms =
            axiomatic::Checker(t, kind).enumerate();
        if (kind == ModelKind::ARM) {
            EXPECT_FALSE(result.outcomes.empty()) << what;
            for (const auto &o : result.outcomes)
                EXPECT_TRUE(axioms.count(o)) << what << ": "
                                             << o.toString();
        } else {
            EXPECT_EQ(result.outcomes, axioms) << what;
        }
    }
}

TEST(Explorer, InternedMatchesStringSetBaseline)
{
    // The compact fingerprint path and the seed's string-set baseline
    // must enumerate identical outcome sets and state counts.
    for (const char *name : {"dekker", "mp", "wrc_dep", "corr"}) {
        const GamMachine machine(testByName(name), {});
        auto interned = exploreAll(machine);
        auto baseline = exploreAllStringSet(machine);
        EXPECT_EQ(interned.outcomes, baseline.outcomes) << name;
        EXPECT_EQ(interned.statesVisited, baseline.statesVisited)
            << name;
        const InOrderMachine tso(testByName(name), ModelKind::TSO);
        EXPECT_EQ(exploreAll(tso).statesVisited,
                  exploreAllStringSet(tso).statesVisited) << name;
    }
}

TEST(Explorer, FingerprintIsStableAndDiscriminates)
{
    const litmus::LitmusTest &t = testByName("mp");
    GamMachine a(t, {});
    GamMachine b = a;
    EXPECT_EQ(stateFingerprint(a), stateFingerprint(b));
    // Fire one rule: the successor state must fingerprint differently.
    auto rules = b.enabledRules();
    ASSERT_FALSE(rules.empty());
    b.fire(rules[0]);
    EXPECT_NE(stateFingerprint(a), stateFingerprint(b));
}

TEST(StateSet, InsertAndDeduplicate)
{
    StateSet set;
    EXPECT_TRUE(set.insert(42));
    EXPECT_FALSE(set.insert(42));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.insert(7));
    EXPECT_EQ(set.size(), 2u);
    // Key 0 collides with the internal empty marker and must still
    // round-trip.
    EXPECT_TRUE(set.insert(0));
    EXPECT_FALSE(set.insert(0));
    EXPECT_FALSE(set.insert(42));
    EXPECT_EQ(set.size(), 3u);
}

TEST(StateSet, GrowsPastInitialCapacity)
{
    StateSet set(16);
    Rng rng(99);
    std::vector<uint64_t> keys;
    for (int i = 0; i < 10000; ++i)
        keys.push_back(rng.next());
    for (uint64_t k : keys)
        set.insert(k);
    // Duplicates in the stream are possible but astronomically
    // unlikely; all keys must be present afterwards either way, so
    // inserting any of them again reports it already there.
    for (uint64_t k : keys)
        EXPECT_FALSE(set.insert(k));
    EXPECT_LE(set.size(), keys.size());
    EXPECT_GT(set.size(), keys.size() - 3);
}

TEST(InOrderMachineTest, ScDekkerOutcomes)
{
    // Figure 2: exactly three SC outcomes.
    auto outcomes = exploreModel(testByName("dekker"), ModelKind::SC);
    EXPECT_EQ(outcomes.size(), 3u);
}

TEST(InOrderMachineTest, TsoForwardsOwnBufferedStore)
{
    // corw-style: a thread sees its own buffered store.
    LitmusTest t = litmus::LitmusBuilder("t", "unit")
        .location("a", 0x1000)
        .thread(ProgramBuilder()
                    .li(R(8), 0x1000)
                    .li(R(1), 5)
                    .st(R(8), R(1))
                    .ld(R(2), R(8))
                    .build())
        .requireReg(0, R(2), 5)
        .expect(ModelKind::TSO, true)
        .done();
    auto outcomes = exploreAll(InOrderMachine(t, ModelKind::TSO)).outcomes;
    for (const auto &o : outcomes)
        EXPECT_TRUE(t.conditionMatches(o));
}

TEST(InOrderMachineTest, TsoDekkerWeakOutcomeReachable)
{
    EXPECT_TRUE(allowed(testByName("dekker"), ModelKind::TSO));
}

TEST(InOrderMachineTest, TsoFenceSlDrains)
{
    EXPECT_FALSE(allowed(testByName("sb_fenced"), ModelKind::TSO));
}

TEST(InOrderMachineTest, StateSpacesArePinned)
{
    // Totals of states visited and outcome-set sizes over the builtin
    // and four-thread suites.  SC must walk exactly the states of a
    // machine without store buffers, and TSO exactly those of one FIFO
    // buffer per processor, whatever order the buffered stores of
    // different processors were issued in.
    struct Totals
    {
        uint64_t states = 0;
        uint64_t outcomes = 0;
    };
    auto explore = [](const std::vector<LitmusTest> &suite,
                      ModelKind kind) {
        Totals t;
        for (const LitmusTest &test : suite) {
            const ExploreResult r = exploreAll(InOrderMachine(test, kind));
            EXPECT_TRUE(r.complete) << test.name;
            t.states += r.statesVisited;
            t.outcomes += r.outcomes.size();
        }
        return t;
    };
    const std::vector<LitmusTest> builtins = litmus::allTests();
    const std::vector<LitmusTest> &four = litmus::fourThreadSuite();
    const struct
    {
        const std::vector<LitmusTest> &suite;
        ModelKind kind;
        uint64_t states, outcomes;
    } pins[] = {
        {builtins, ModelKind::SC, 2842, 105},
        {builtins, ModelKind::TSO, 4492, 107},
        {four, ModelKind::SC, 4650, 103},
        {four, ModelKind::TSO, 6998, 104},
    };
    for (const auto &pin : pins) {
        const Totals t = explore(pin.suite, pin.kind);
        EXPECT_EQ(t.states, pin.states) << model::modelName(pin.kind);
        EXPECT_EQ(t.outcomes, pin.outcomes) << model::modelName(pin.kind);
    }
}

TEST(GamMachineRules, AlphaStarOffersLoadLoadForwarding)
{
    // After an older same-address load is done, Alpha* offers the /alt
    // ExecLoad choice for the younger load.
    const LitmusTest &t = testByName("corr");
    GamOptions opts;
    opts.kind = ModelKind::AlphaStar;
    auto outcomes = exploreAll(GamMachine(t, opts)).outcomes;
    // Alpha* must allow the CoRR violation via stale forwarding.
    bool weak = false;
    for (const auto &o : outcomes)
        weak |= t.conditionMatches(o);
    EXPECT_TRUE(weak);
}

} // namespace
} // namespace gam::operational

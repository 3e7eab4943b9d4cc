/** Unit tests for dependency analysis and preserved program order. */

#include <gtest/gtest.h>

#include "model/deps.hh"
#include "model/kind.hh"
#include "model/ppo.hh"

namespace gam::model
{
namespace
{

using isa::FenceKind;
using isa::Opcode;
using isa::R;

TraceInstr
ti(isa::Instruction instr, isa::Addr addr = 0)
{
    TraceInstr t;
    t.instr = instr;
    t.addr = addr;
    return t;
}

TEST(ModelKindTest, Names)
{
    EXPECT_EQ(modelName(ModelKind::GAM), "GAM");
    EXPECT_EQ(modelName(ModelKind::AlphaStar), "Alpha*");
    EXPECT_TRUE(isGamFamily(ModelKind::GAM0));
    EXPECT_FALSE(isGamFamily(ModelKind::SC));
}

TEST(RelationTest, TransitiveClosure)
{
    Relation r(3);
    r.set(0, 1);
    r.set(1, 2);
    r.transitiveClose();
    EXPECT_TRUE(r(0, 2));
    EXPECT_FALSE(r(2, 0));
}

TEST(DataDeps, DirectRaw)
{
    // I0 writes r1; I1 reads r1.
    Trace t{ti(isa::makeLi(R(1), 5)),
            ti(isa::makeAlu(Opcode::ADD, R(2), R(1), R(1)))};
    Relation d = dataDeps(t);
    EXPECT_TRUE(d(0, 1));
    EXPECT_FALSE(d(1, 0));
}

TEST(DataDeps, LastWriterWins)
{
    // I0 and I1 both write r1; only I1 feeds I2 (Definition 4).
    Trace t{ti(isa::makeLi(R(1), 1)),
            ti(isa::makeLi(R(1), 2)),
            ti(isa::makeAlu(Opcode::ADD, R(2), R(1), R(1)))};
    Relation d = dataDeps(t);
    EXPECT_FALSE(d(0, 2));
    EXPECT_TRUE(d(1, 2));
}

TEST(DataDeps, ThroughStoreData)
{
    // The load feeding a store's data is a ddep producer of the store.
    Trace t{ti(isa::makeLoad(R(1), R(9)), 0x1000),
            ti(isa::makeStore(R(8), R(1)), 0x2000)};
    Relation d = dataDeps(t);
    EXPECT_TRUE(d(0, 1));
}

TEST(AddrDeps, OnlyAddressSources)
{
    // I0 produces the *data* of the store, I1 the address: only I1 is
    // an address dependency (Definition 5).
    Trace t{ti(isa::makeLi(R(2), 7)),
            ti(isa::makeLi(R(8), 0x1000)),
            ti(isa::makeStore(R(8), R(2)), 0x1000)};
    Relation a = addrDeps(t);
    EXPECT_FALSE(a(0, 2));
    EXPECT_TRUE(a(1, 2));
    Relation d = dataDeps(t);
    EXPECT_TRUE(d(0, 2)); // but it is a data dependency
}

TEST(PpoCase, SaMemStOrdersStoresAfterSameAddrAccess)
{
    Trace t{ti(isa::makeLoad(R(1), R(8)), 0x1000),
            ti(isa::makeStore(R(8), R(2)), 0x1000),
            ti(isa::makeStore(R(9), R(2)), 0x2000)};
    Relation r = ppo_case::saMemSt(t);
    EXPECT_TRUE(r(0, 1));   // load then same-address store
    EXPECT_FALSE(r(0, 2));  // different address
    EXPECT_FALSE(r(1, 0));
}

TEST(PpoCase, SaStLdThroughForwardableStore)
{
    // I0 produces data of store I1; load I2 reads the same address:
    // I0 <ppo I2 (constraint SAStLd).
    Trace t{ti(isa::makeLi(R(1), 5)),
            ti(isa::makeStore(R(8), R(1)), 0x1000),
            ti(isa::makeLoad(R(2), R(8)), 0x1000)};
    Relation r = ppo_case::saStLd(t);
    EXPECT_TRUE(r(0, 2));
    EXPECT_FALSE(r(1, 2)); // the store itself is not related by SAStLd
}

TEST(PpoCase, SaStLdOnlyImmediatelyPrecedingStore)
{
    // A second same-address store between hides the first.
    Trace t{ti(isa::makeLi(R(1), 5)),
            ti(isa::makeStore(R(8), R(1)), 0x1000),
            ti(isa::makeLi(R(2), 6)),
            ti(isa::makeStore(R(8), R(2)), 0x1000),
            ti(isa::makeLoad(R(3), R(8)), 0x1000)};
    Relation r = ppo_case::saStLd(t);
    EXPECT_FALSE(r(0, 4));
    EXPECT_TRUE(r(2, 4));
}

TEST(PpoCase, SaLdLdConsecutiveLoads)
{
    Trace t{ti(isa::makeLoad(R(1), R(8)), 0x1000),
            ti(isa::makeLoad(R(2), R(8)), 0x1000),
            ti(isa::makeLoad(R(3), R(9)), 0x2000)};
    Relation r = ppo_case::saLdLd(t);
    EXPECT_TRUE(r(0, 1));
    EXPECT_FALSE(r(0, 2));
    EXPECT_FALSE(r(1, 2));
}

TEST(PpoCase, SaLdLdExemptWithInterveningStore)
{
    // Figure 14b: an intervening same-address store removes the edge.
    Trace t{ti(isa::makeLoad(R(1), R(8)), 0x1000),
            ti(isa::makeStore(R(8), R(2)), 0x1000),
            ti(isa::makeLoad(R(3), R(8)), 0x1000)};
    Relation r = ppo_case::saLdLd(t);
    EXPECT_FALSE(r(0, 2));
}

TEST(PpoCase, SaLdLdArmSameStoreUnordered)
{
    Trace t{ti(isa::makeLoad(R(1), R(8)), 0x1000),
            ti(isa::makeLoad(R(2), R(8)), 0x1000)};
    RfMap same{5, 5};
    EXPECT_FALSE(ppo_case::saLdLdArm(t, same)(0, 1));
    RfMap diff{5, InitStore};
    EXPECT_TRUE(ppo_case::saLdLdArm(t, diff)(0, 1));
}

TEST(PpoCase, BrStOrdersStoresAfterBranches)
{
    Trace t{ti(isa::makeBranch(Opcode::BEQ, R(1), R(0), 2)),
            ti(isa::makeLoad(R(2), R(8)), 0x1000),
            ti(isa::makeStore(R(9), R(3)), 0x2000)};
    Relation r = ppo_case::brSt(t);
    EXPECT_TRUE(r(0, 2));
    EXPECT_FALSE(r(0, 1)); // loads are not ordered after branches
}

TEST(PpoCase, AddrStOrdersStoreAfterAddrProducer)
{
    // I0 produces the address of load I1; store I2 must wait for I0.
    Trace t{ti(isa::makeLi(R(8), 0x1000)),
            ti(isa::makeLoad(R(1), R(8)), 0x1000),
            ti(isa::makeStore(R(9), R(2)), 0x2000)};
    Relation r = ppo_case::addrSt(t);
    EXPECT_TRUE(r(0, 2));
    EXPECT_FALSE(r(1, 2)); // the load itself is not AddrSt-ordered
}

TEST(PpoCase, FenceOrdering)
{
    Trace t{ti(isa::makeLoad(R(1), R(8)), 0x1000),
            ti(isa::makeStore(R(9), R(2)), 0x2000),
            ti(isa::makeFence(FenceKind::LS)),
            ti(isa::makeLoad(R(3), R(8)), 0x1000),
            ti(isa::makeStore(R(9), R(4)), 0x2000)};
    Relation r = ppo_case::fenceOrd(t);
    EXPECT_TRUE(r(0, 2));   // older load -> FenceLS
    EXPECT_FALSE(r(1, 2));  // older store not ordered by FenceLS
    EXPECT_TRUE(r(2, 4));   // FenceLS -> younger store
    EXPECT_FALSE(r(2, 3));  // FenceLS does not order younger loads
}

TEST(Ppo, GamIncludesTransitivity)
{
    // Load -> (ddep) alu -> (ddep addr) load gives load <ppo load.
    Trace t{ti(isa::makeLoad(R(1), R(8)), 0x1000),
            ti(isa::makeAlu(Opcode::ADD, R(2), R(1), R(9))),
            ti(isa::makeLoad(R(3), R(2)), 0x2000)};
    Relation r = preservedProgramOrder(t, ModelKind::GAM);
    EXPECT_TRUE(r(0, 2));
}

TEST(Ppo, Gam0OmitsSaLdLd)
{
    Trace t{ti(isa::makeLoad(R(1), R(8)), 0x1000),
            ti(isa::makeLoad(R(2), R(8)), 0x1000)};
    EXPECT_FALSE(preservedProgramOrder(t, ModelKind::GAM0)(0, 1));
    EXPECT_TRUE(preservedProgramOrder(t, ModelKind::GAM)(0, 1));
}

TEST(Ppo, ScOrdersEverything)
{
    Trace t{ti(isa::makeStore(R(8), R(1)), 0x1000),
            ti(isa::makeLoad(R(2), R(9)), 0x2000)};
    EXPECT_TRUE(preservedProgramOrder(t, ModelKind::SC)(0, 1));
}

TEST(Ppo, TsoRelaxesStoreToLoadOnly)
{
    Trace t{ti(isa::makeStore(R(8), R(1)), 0x1000),
            ti(isa::makeLoad(R(2), R(9)), 0x2000),
            ti(isa::makeStore(R(8), R(3)), 0x1000)};
    Relation r = preservedProgramOrder(t, ModelKind::TSO);
    EXPECT_FALSE(r(0, 1)); // St -> Ld relaxed
    EXPECT_TRUE(r(1, 2));  // Ld -> St kept
    EXPECT_TRUE(r(0, 2));  // St -> St kept
}

TEST(Ppo, TsoFenceSlRestoresStoreLoad)
{
    Trace t{ti(isa::makeStore(R(8), R(1)), 0x1000),
            ti(isa::makeFence(FenceKind::SL)),
            ti(isa::makeLoad(R(2), R(9)), 0x2000)};
    Relation r = preservedProgramOrder(t, ModelKind::TSO);
    EXPECT_TRUE(r(0, 2));
}

TEST(Ppo, PerLocScOnlySameAddress)
{
    Trace t{ti(isa::makeStore(R(8), R(1)), 0x1000),
            ti(isa::makeLoad(R(2), R(9)), 0x2000),
            ti(isa::makeLoad(R(3), R(8)), 0x1000)};
    Relation r = preservedProgramOrder(t, ModelKind::PerLocSC);
    EXPECT_FALSE(r(0, 1));
    EXPECT_TRUE(r(0, 2));
}

TEST(Ppo, ArmRequiresRfMap)
{
    Trace t{ti(isa::makeLoad(R(1), R(8)), 0x1000),
            ti(isa::makeLoad(R(2), R(8)), 0x1000)};
    RfMap rf{InitStore, 3};
    Relation r = preservedProgramOrder(t, ModelKind::ARM, &rf);
    EXPECT_TRUE(r(0, 1));
}

} // namespace
} // namespace gam::model

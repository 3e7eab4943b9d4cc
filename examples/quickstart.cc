/**
 * @file
 * Quickstart: define a litmus test with the builder API, then ask both
 * engines -- the axiomatic checker and the operational explorer --
 * whether a weak behavior is allowed under SC and under GAM.
 *
 * Run: ./quickstart
 */

#include <cstdio>

#include "axiomatic/checker.hh"
#include "harness/decision.hh"
#include "isa/program.hh"
#include "litmus/test.hh"
#include "operational/explorer.hh"
#include "operational/gam_machine.hh"
#include "operational/inorder_machine.hh"

int
main()
{
    using namespace gam;
    using isa::ProgramBuilder;
    using isa::R;
    using model::ModelKind;

    // Dekker / store-buffering (paper Figure 2):
    //   P0: St [a] 1; r1 = Ld [b]     P1: St [b] 1; r2 = Ld [a]
    // Question: can both loads read 0?
    constexpr isa::Addr A = 0x1000, B = 0x1008;

    ProgramBuilder p0, p1;
    p0.li(R(8), A).li(R(9), B)
      .li(R(7), 1).st(R(8), R(7))
      .ld(R(1), R(9));
    p1.li(R(8), A).li(R(9), B)
      .li(R(7), 1).st(R(9), R(7))
      .ld(R(2), R(8));

    litmus::LitmusTest test = litmus::LitmusBuilder("my_dekker", "demo")
        .location("a", A).location("b", B)
        .thread(p0.build()).thread(p1.build())
        .requireReg(0, R(1), 0)
        .requireReg(1, R(2), 0)
        .expect(ModelKind::GAM, true)
        .done();

    std::printf("%s\n", test.toString().c_str());

    for (ModelKind kind : {ModelKind::SC, ModelKind::GAM}) {
        // Engine 1: the axiomatic checker (Section IV-A).
        axiomatic::Checker checker(test, kind);
        bool ax = checker.isAllowed();

        // Engine 2: exhaustive exploration of the abstract machine
        // (Section IV-B): the in-order machine for SC, the GAM machine
        // for GAM.
        bool op;
        if (kind == ModelKind::SC) {
            op = false;
            for (const auto &o : operational::exploreAll(
                     operational::InOrderMachine(test, kind)).outcomes)
                op |= test.conditionMatches(o);
        } else {
            operational::GamOptions opts;
            opts.kind = kind;
            op = false;
            for (const auto &o : operational::exploreAll(
                     operational::GamMachine(test, opts)).outcomes)
                op |= test.conditionMatches(o);
        }

        std::printf("under %-4s: axiomatic says %-9s operational says "
                    "%s\n", model::modelName(kind).c_str(),
                    ax ? "ALLOWED," : "FORBIDDEN,",
                    op ? "ALLOWED" : "FORBIDDEN");
    }

    std::printf("\nGAM allows the r1=r2=0 outcome (all four load/store "
                "reorderings are legal);\nSC forbids it.  Both engines "
                "agree -- that is the paper's equivalence theorem.\n");

    // The invocations above are the engines driven by hand.  Everyday
    // code asks through the unified Decision API instead: one Query,
    // the registry picks a capable engine, and repeated queries are
    // served from the decision cache.
    harness::Query query;
    query.test = &test;
    query.model = ModelKind::GAM;
    query.engine = harness::EngineSelect::Auto;
    const harness::Decision d = harness::decide(query);
    const harness::Decision warm = harness::decide(query);
    std::printf("\ndecide(): %s under GAM via the %s engine "
                "(%llu candidates, %zu outcomes); warm repeat %s from "
                "cache\n",
                d.allowed ? "ALLOWED" : "FORBIDDEN",
                model::engineName(d.engine).c_str(),
                (unsigned long long)d.statesVisited, d.outcomes.size(),
                warm.cacheHit ? "served" : "NOT served");
    return 0;
}

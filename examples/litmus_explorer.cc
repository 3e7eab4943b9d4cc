/**
 * @file
 * Litmus explorer: enumerate the full outcome set of any suite test
 * under any model, with both engines.
 *
 * Usage:
 *   ./litmus_explorer                 # list available tests
 *   ./litmus_explorer corr            # explore under every model
 *   ./litmus_explorer corr GAM0       # one model only
 */

#include <cstdio>
#include <cstring>

#include "axiomatic/checker.hh"
#include "litmus/suite.hh"
#include "operational/explorer.hh"
#include "operational/gam_machine.hh"
#include "operational/inorder_machine.hh"

namespace
{

using namespace gam;
using model::ModelKind;

void
explore(const litmus::LitmusTest &test, ModelKind kind)
{
    std::printf("--- %s under %s ---\n", test.name.c_str(),
                model::modelName(kind).c_str());

    if (kind != ModelKind::AlphaStar) {
        axiomatic::Checker checker(test, kind);
        auto outcomes = checker.enumerate();
        std::printf("axiomatic   : %zu outcomes\n", outcomes.size());
        for (const auto &o : outcomes) {
            std::printf("  %s%s\n", o.toString().c_str(),
                        test.conditionMatches(o) ? "   <-- condition"
                                                 : "");
        }
    } else {
        std::printf("axiomatic   : (Alpha* has no axiomatic "
                    "definition)\n");
    }

    litmus::OutcomeSet op;
    if (kind == ModelKind::SC || kind == ModelKind::TSO) {
        op = operational::exploreAll(
                 operational::InOrderMachine(test, kind)).outcomes;
    } else if (kind == ModelKind::PerLocSC) {
        std::printf("operational : (per-location SC is a property, "
                    "not a machine)\n\n");
        return;
    } else {
        operational::GamOptions opts;
        opts.kind = kind;
        op = operational::exploreAll(operational::GamMachine(test, opts))
                 .outcomes;
    }
    std::printf("operational : %zu outcomes\n\n", op.size());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::printf("usage: %s <test> [model]\n\navailable tests:\n",
                    argv[0]);
        for (const auto &t : litmus::allTests())
            std::printf("  %-20s %s\n", t.name.c_str(),
                        t.paperRef.c_str());
        std::printf("\nmodels: SC TSO GAM0 GAM ARM Alpha* PerLocSC\n");
        return 0;
    }

    const litmus::LitmusTest *found = litmus::findTest(argv[1]);
    if (!found) {
        std::fprintf(stderr, "unknown test '%s'; available tests:\n",
                     argv[1]);
        for (const auto &t : litmus::allTests())
            std::fprintf(stderr, "  %s\n", t.name.c_str());
        return 1;
    }
    const litmus::LitmusTest &test = *found;
    std::printf("%s\n", test.toString().c_str());

    const ModelKind all[] = {ModelKind::SC, ModelKind::TSO,
                             ModelKind::GAM0, ModelKind::GAM,
                             ModelKind::ARM, ModelKind::AlphaStar};
    if (argc >= 3) {
        for (ModelKind kind : all) {
            if (model::modelName(kind) == argv[2]) {
                explore(test, kind);
                return 0;
            }
        }
        std::fprintf(stderr, "unknown model '%s'\n", argv[2]);
        return 1;
    }
    for (ModelKind kind : all)
        explore(test, kind);
    return 0;
}

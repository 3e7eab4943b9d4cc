/**
 * The litmus text frontend: recoverable assembly, disassembly,
 * parsing, canonical printing, and the pinned corpus.
 *
 * The central property is the parse -> print -> parse fixpoint: for
 * every built-in test, printLitmus() output parses back to a
 * semantically identical test and re-prints byte-identically.  The
 * recoverable error paths (the reason this frontend can exist at all)
 * are checked to return diagnostics instead of killing the process.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "harness/decision.hh"
#include "isa/assembler.hh"
#include "litmus/parser.hh"
#include "litmus/suite.hh"
#include "model/kind.hh"

namespace gam
{
namespace
{

using litmus::LitmusTest;

/** decide()'s verdict on @p test under @p kind by @p engine. */
bool
allowedBy(const LitmusTest &test, model::ModelKind kind,
          harness::EngineSelect engine)
{
    harness::Query query;
    query.test = &test;
    query.model = kind;
    query.engine = engine;
    return harness::decide(query).allowed;
}
using litmus::parseLitmus;
using litmus::printLitmus;

void
expectSameTest(const LitmusTest &a, const LitmusTest &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.paperRef, b.paperRef);
    EXPECT_EQ(a.description, b.description);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (size_t tid = 0; tid < a.threads.size(); ++tid)
        EXPECT_EQ(a.threads[tid].code, b.threads[tid].code) << tid;
    EXPECT_EQ(a.locations, b.locations);
    EXPECT_TRUE(a.initialMem == b.initialMem);
    ASSERT_EQ(a.regCond.size(), b.regCond.size());
    for (size_t i = 0; i < a.regCond.size(); ++i) {
        EXPECT_EQ(a.regCond[i].tid, b.regCond[i].tid);
        EXPECT_EQ(a.regCond[i].reg, b.regCond[i].reg);
        EXPECT_EQ(a.regCond[i].value, b.regCond[i].value);
    }
    ASSERT_EQ(a.memCond.size(), b.memCond.size());
    for (size_t i = 0; i < a.memCond.size(); ++i) {
        EXPECT_EQ(a.memCond[i].addr, b.memCond[i].addr);
        EXPECT_EQ(a.memCond[i].value, b.memCond[i].value);
    }
    EXPECT_EQ(a.expected, b.expected);
    EXPECT_EQ(a.observedRegs, b.observedRegs);
    EXPECT_EQ(a.addressUniverse, b.addressUniverse);
}

TEST(Parser, RoundTripFixpointOnEverySuiteTest)
{
    for (const LitmusTest &test : litmus::allTests()) {
        const std::string text = printLitmus(test);
        auto parsed = parseLitmus(text);
        ASSERT_TRUE(parsed) << test.name << ": "
                            << parsed.error.toString();
        expectSameTest(test, *parsed);
        EXPECT_EQ(text, printLitmus(*parsed))
            << test.name << ": parse -> print is not a fixpoint";
    }
}

TEST(Parser, ParsedTestKeepsEngineVerdicts)
{
    for (const char *name : {"dekker", "mp_fenced", "rmw_mutex"}) {
        const LitmusTest &original = *litmus::findTest(name);
        auto parsed = parseLitmus(printLitmus(original));
        ASSERT_TRUE(parsed) << parsed.error.toString();
        for (model::ModelKind kind :
             {model::ModelKind::SC, model::ModelKind::GAM}) {
            for (harness::EngineSelect engine :
                 {harness::EngineSelect::Axiomatic,
                  harness::EngineSelect::Operational}) {
                EXPECT_EQ(allowedBy(original, kind, engine),
                          allowedBy(*parsed, kind, engine))
                    << name;
            }
        }
    }
}

TEST(Parser, HandWrittenDocumentNormalises)
{
    const char *doc = R"(# free-form input
litmus my_sb
desc "store buffering, hand written"
location x 0x1000
location y 0x1008

thread 0 {
    li r8, 0x1000   # hex immediates work
    li r9, 0x1008
    li r2, 1
    st [r8], r2
    ld r1, [r9]
}
thread 1 {
    li r8, 0x1000
    li r9, 0x1008
    li r2, 1
    st [r9], r2
    ld r1, [r8]
}
condition 0:r1=0 & 1:r1=0
expect SC forbidden
expect GAM allowed
)";
    auto parsed = parseLitmus(doc);
    ASSERT_TRUE(parsed) << parsed.error.toString();
    EXPECT_EQ(parsed->name, "my_sb");
    EXPECT_EQ(parsed->threads.size(), 2u);
    EXPECT_EQ(parsed->regCond.size(), 2u);
    // Normalised text is a fixpoint even for free-form input.
    const std::string canon = printLitmus(*parsed);
    auto reparsed = parseLitmus(canon);
    ASSERT_TRUE(reparsed);
    EXPECT_EQ(canon, printLitmus(*reparsed));
    // And the verdicts come out right.
    EXPECT_FALSE(allowedBy(*parsed, model::ModelKind::SC,
                           harness::EngineSelect::Axiomatic));
    EXPECT_TRUE(allowedBy(*parsed, model::ModelKind::GAM,
                          harness::EngineSelect::Axiomatic));
}

struct BadDoc
{
    const char *source;
    int line;            ///< expected error line (0 = document level)
    const char *needle;  ///< substring of the expected message
};

TEST(Parser, MalformedDocumentsReturnDiagnostics)
{
    const BadDoc cases[] = {
        {"", 0, "empty document"},
        {"location a 0x1000\n", 1, "must start with 'litmus"},
        {"litmus t\nbogus 1\n", 2, "unknown section keyword"},
        {"litmus t\nlitmus u\n", 2, "duplicate 'litmus'"},
        {"litmus t\nlocation a 0x1001\n", 2, "aligned"},
        {"litmus t\nlocation a 0x1000\nlocation a 0x1008\n", 3,
         "duplicate location"},
        {"litmus t\ninit [0x1000 1\n", 2, "expected ']'"},
        {"litmus t\nthread 1 {\n}\n", 2, "expected 'thread 0'"},
        {"litmus t\nthread 0 {\n    ld r1\n}\n", 3, "expected ','"},
        {"litmus t\nthread 0 {\n    frobnicate r1\n}\n", 3,
         "unknown mnemonic"},
        {"litmus t\nthread 0 {\n    li r1, 1\n", 2,
         "unterminated thread block"},
        {"litmus t\nthread 0 {\n    li r99, 1\n}\n", 3,
         "register out of range"},
        {"litmus t\nthread 0 {\n    li r1, "
         "999999999999999999999999\n}\n", 3, "number out of range"},
        {"litmus t\nthread 0 {\n    jmp nowhere\n}\n", 2,
         "undefined label"},
        {"litmus t\nthread 0 {\nx:\n    nop\nx:\n    nop\n}\n", 5,
         "duplicate label"},
        {"litmus t\nthread 0 {\n    nop\n}\ncondition 9:r1=0\n", 0,
         "references thread 9"},
        {"litmus t\nthread 0 {\n    nop\n}\ncondition 0:r1\n", 5,
         "expected '='"},
        {"litmus t\nthread 0 {\n    nop\n}\nexpect FOO allowed\n", 5,
         "unknown model"},
        {"litmus t\nthread 0 {\n    nop\n}\nexpect GAM maybe\n", 5,
         "'allowed' or 'forbidden'"},
        {"litmus t\nthread 0 {\n    nop\n}\nexpect GAM allowed\n"
         "expect GAM allowed\n", 6, "duplicate 'expect"},
        {"litmus t\ncondition 0:r1=0\n", 0, "no threads"},
        // A huge tid must not truncate into a valid thread index.
        {"litmus t\nthread 0 {\n    nop\n}\n"
         "condition 4294967296:r1=1\n", 5, "thread index out of range"},
        {"litmus t\nthread 0 {\nback:\n    nop\n    jmp back\n}\n", 0,
         "backward branch"},
    };
    for (const BadDoc &c : cases) {
        auto parsed = parseLitmus(c.source);
        ASSERT_FALSE(parsed) << "accepted: " << c.source;
        EXPECT_EQ(parsed.error.line, c.line) << c.source << "\ngot: "
                                             << parsed.error.toString();
        EXPECT_NE(parsed.error.message.find(c.needle),
                  std::string::npos)
            << "message '" << parsed.error.message
            << "' does not mention '" << c.needle << "'";
    }
}

TEST(Parser, Int64MinParsesWithoutOverflow)
{
    // -2^63 exercises the negation edge case in the number scanner.
    auto parsed = parseLitmus(
        "litmus t\nlocation a 0x1000\n"
        "init [0x1000] -9223372036854775808\n"
        "thread 0 {\n    li r8, 4096\n    ld r1, [r8]\n}\n"
        "condition 0:r1=0\n");
    ASSERT_TRUE(parsed) << parsed.error.toString();
    EXPECT_EQ(parsed->initialMem.load(0x1000),
              std::numeric_limits<int64_t>::min());
    const std::string text = printLitmus(*parsed);
    auto reparsed = parseLitmus(text);
    ASSERT_TRUE(reparsed);
    EXPECT_EQ(text, printLitmus(*reparsed));
}

TEST(Assembler, ErrorsAreRecoverable)
{
    auto bad = isa::assembleOrError("li r1, 5\nld r2 [r1]\n");
    ASSERT_FALSE(bad);
    EXPECT_EQ(bad.diag.line, 2);
    EXPECT_NE(bad.diag.toString().find("asm line 2"),
              std::string::npos);

    auto good = isa::assembleOrError("li r1, 5\nhalt\n");
    ASSERT_TRUE(good);
    EXPECT_EQ(good->size(), 2u);
}

TEST(Assembler, DisassemblyReassembles)
{
    for (const LitmusTest &test : litmus::allTests()) {
        for (const isa::Program &prog : test.threads) {
            const std::string text = isa::disassemble(prog);
            auto back = isa::assembleOrError(text);
            ASSERT_TRUE(back) << test.name << ":\n" << text << "\n"
                              << back.diag.toString();
            EXPECT_EQ(prog.code, back->code) << test.name;
            EXPECT_EQ(text, isa::disassemble(*back)) << test.name;
        }
    }
}

TEST(Assembler, BuilderRecoverablePaths)
{
    isa::ProgramBuilder b;
    EXPECT_TRUE(b.tryLabel("x"));
    EXPECT_FALSE(b.tryLabel("x"));
    b.nop();
    b.jmp("missing");
    std::string error;
    EXPECT_FALSE(b.tryBuild(&error));
    EXPECT_NE(error.find("undefined label"), std::string::npos);
}

TEST(Suite, FindTestIsRecoverable)
{
    EXPECT_EQ(litmus::findTest("no_such_test"), nullptr);
    const litmus::LitmusTest *dekker = litmus::findTest("dekker");
    ASSERT_NE(dekker, nullptr);
    EXPECT_EQ(dekker->name, "dekker");
    EXPECT_DEATH(litmus::testByName("no_such_test"),
                 "unknown litmus test");
}

TEST(Corpus, PinnedFilesAreCanonicalFixpoints)
{
    const std::filesystem::path dir = GAM_CORPUS_DIR;
    ASSERT_TRUE(std::filesystem::is_directory(dir));
    size_t good = 0, bad = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".litmus")
            continue;
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        auto parsed = parseLitmus(text.str());
        if (entry.path().filename().string().starts_with("bad_")) {
            ++bad;
            EXPECT_FALSE(parsed) << entry.path();
            EXPECT_GT(parsed.error.line, 0) << entry.path();
            continue;
        }
        ++good;
        ASSERT_TRUE(parsed) << entry.path() << ": "
                            << parsed.error.toString();
        EXPECT_EQ(text.str(), printLitmus(*parsed))
            << entry.path() << " is not in canonical form";
    }
    EXPECT_GE(good, 5u) << "corpus unexpectedly small";
    EXPECT_GE(bad, 1u) << "corpus lost its malformed specimen";
}

} // namespace
} // namespace gam

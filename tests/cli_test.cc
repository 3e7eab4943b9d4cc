/**
 * The gam-litmus command line contract, checked against the built
 * binary: bad arguments exit 2 with one stderr line and nothing on
 * stdout before any work, counts stay within their ranges, the usage
 * text names every option of every command, a directory is refused
 * where a file is expected, `campaign compact` refuses to overwrite a
 * file that is not a store, every --json mode prints one
 * gam-metrics-v1 document and nothing else, and a thread longer than
 * 48 instructions is decided by every model and engine.
 *
 * Thread-count caps are only ever probed with values that do not fit
 * an unsigned, so a build without the cap cannot start that many
 * threads.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/registry.hh"

namespace
{

namespace fs = std::filesystem;

/** One gam-litmus run: its exit status and what it printed. */
struct Outcome
{
    int status = -1;
    std::string out;
    std::string err;
};

std::string
fileBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** Each case runs the binary in a fresh working directory of its own. */
class Cli : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const std::string name =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        root = fs::temp_directory_path()
            / ("gam_cli_" + name + "_" + std::to_string(getpid()));
        fs::remove_all(root);
        fs::create_directories(work());
    }

    void TearDown() override { fs::remove_all(root); }

    /** The binary's working directory (its output goes beside it). */
    fs::path work() const { return root / "work"; }

    /** Run gam-litmus with @p args, a shell-quoted argument string. */
    Outcome
    run(const std::string &args) const
    {
        const std::string out = (root / "out.txt").string();
        const std::string err = (root / "err.txt").string();
        const std::string cmd = "cd '" + work().string() + "' && '"
            + GAM_LITMUS_BIN + "' " + args + " > '" + out + "' 2> '" + err
            + "'";
        const int raw = std::system(cmd.c_str());
        Outcome r;
        r.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
        r.out = fileBytes(out);
        r.err = fileBytes(err);
        return r;
    }

    /** The names in the working directory: what a run left behind. */
    std::set<std::string>
    workFiles() const
    {
        std::set<std::string> names;
        for (const auto &entry : fs::directory_iterator(work()))
            names.insert(entry.path().filename().string());
        return names;
    }

    fs::path root;
};

/** @p r refused its arguments: exit 2, an empty stdout, and one stderr
 *  line that names @p arg. */
void
expectRefused(const Outcome &r, const std::string &arg)
{
    EXPECT_EQ(r.status, 2) << r.err;
    EXPECT_EQ(r.out, "");
    EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1) << r.err;
    EXPECT_NE(r.err.find(arg), std::string::npos) << r.err;
}

TEST_F(Cli, EveryCommandRejectsAnUnknownOption)
{
    // Valid operands and options come first: the unknown option still
    // stops the run before any of them is acted on.
    const std::pair<const char *, const char *> commands[] = {
        {"run", "mp"},
        {"print", "mp"},
        {"gen", "--tests 3"},
        {"fuzz", "--tests 3"},
        {"campaign run", "--metrics '' --max-cycle-len 3 --store s.store"},
        {"campaign status", "--store s.store"},
        {"campaign query", "--store s.store --allowed"},
        {"campaign compact", "--output o.store in.store"},
        {"model show", "gam"},
        {"model check", "gam"},
        {"model lint", "gam"},
    };
    for (const auto &[path, args] : commands) {
        SCOPED_TRACE(path);
        const Outcome r =
            run(std::string(path) + " " + args + " --no-such-option");
        expectRefused(r, "--no-such-option");
        EXPECT_EQ(r.err, "gam-litmus: unknown " + std::string(path)
                             + " option '--no-such-option'\n");
        EXPECT_TRUE(workFiles().empty());
    }
}

TEST_F(Cli, ThreadCountsThatDoNotFitAreRefused)
{
    for (const char *command :
         {"run mp", "fuzz --tests 3",
          "campaign run --metrics '' --max-cycle-len 3"}) {
        SCOPED_TRACE(command);
        expectRefused(run(std::string(command) + " --threads 4294967296"),
                      "--threads");
    }
}

TEST_F(Cli, CycleLengthsOutsideThreeToEightAreRefused)
{
    // Each bound comes before an option no build accepts, so a build
    // that took the bound still stops before deciding a universe of up
    // to 8 edges; the refusal must name the bound.
    for (const char *bounds :
         {"--max-cycle-len 9", "--max-cycle-len 4294967299",
          "--max-cycle-len 3 --min-cycle-len 2"}) {
        SCOPED_TRACE(bounds);
        expectRefused(run(std::string("campaign run --metrics '' ")
                          + bounds + " --store s.store --no-such-option"),
                      "-cycle-len");
        EXPECT_TRUE(workFiles().empty());
    }
    // Each bound in range, but min above max.
    expectRefused(run("campaign run --metrics '' --min-cycle-len 5 "
                      "--max-cycle-len 4 --store s.store"),
                  "-cycle-len");
    EXPECT_TRUE(workFiles().empty());
}

TEST_F(Cli, UsageNamesEveryOptionOfEveryCommand)
{
    const std::map<std::string, std::set<std::string>> expected = {
        {"list", {}},
        {"run",
         {"--model", "--engine", "--threads", "--budget", "--stats",
          "--json", "--trace", "--no-prescreen", "--no-cat-compile"}},
        {"print", {}},
        {"gen",
         {"--tests", "--seed", "--out", "--no-verdicts", "--four-thread"}},
        {"fuzz",
         {"--tests", "--seed", "--threads", "--max-states", "--no-shrink",
          "--engine"}},
        {"campaign run",
         {"--max-cycle-len", "--min-cycle-len", "--canonical", "--models",
          "--engines", "--threads", "--limit", "--no-fences", "--no-deps",
          "--no-rmws", "--store", "--verify", "--min-store-hit-rate",
          "--quiet", "--metrics", "--trace"}},
        {"campaign status", {"--store", "--json"}},
        {"campaign query",
         {"--store", "--model", "--allowed", "--forbidden", "--disagree",
          "--json"}},
        {"campaign compact", {"--output"}},
        {"model list", {}},
        {"model show", {"--plan"}},
        {"model check", {}},
        {"model lint", {}},
    };

    const Outcome r = run("");
    EXPECT_EQ(r.status, 2);
    EXPECT_EQ(r.out, "");

    // A command's line starts in column 2: its path, then any required
    // option and its operands, up to the two spaces before the summary.
    // Each further option has a line of its own starting "      [".
    std::map<std::string, std::set<std::string>> listed;
    std::string command;
    std::istringstream lines(r.err);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("  ", 0) == 0 && line.size() > 2 && line[2] != ' ') {
            std::istringstream words(line.substr(2, line.find("  ", 2) - 2));
            std::string word;
            command.clear();
            while (words >> word) {
                if (word.rfind("--", 0) == 0)
                    listed[command].insert(word);
                else if (std::all_of(word.begin(), word.end(), [](char c) {
                             return c >= 'a' && c <= 'z';
                         }))
                    command += (command.empty() ? "" : " ") + word;
            }
            listed[command];
        } else if (line.rfind("      [--", 0) == 0) {
            listed[command].insert(
                line.substr(7, line.find_first_of(" ]", 7) - 7));
        }
    }
    EXPECT_EQ(listed, expected) << r.err;
}

TEST_F(Cli, CompactRefusesToOverwriteAFileThatIsNotAStore)
{
    ASSERT_EQ(run("campaign run --max-cycle-len 3 --store good.store "
                  "--quiet --metrics ''")
                  .status,
              0);
    const std::string notes = "campaign notes, not a decision store\n";
    std::ofstream(work() / "notes.txt") << notes;

    expectRefused(run("campaign compact --output notes.txt good.store"),
                  "notes.txt");
    EXPECT_EQ(fileBytes(work() / "notes.txt"), notes);

    // A fresh output is written, and so is one that is a store.
    for (int pass = 0; pass < 2; ++pass) {
        const Outcome merged =
            run("campaign compact --output merged.store good.store");
        EXPECT_EQ(merged.status, 0) << merged.err;
        EXPECT_EQ(run("campaign status --json --store merged.store").out,
                  run("campaign status --json --store good.store").out);
    }
}

TEST_F(Cli, EveryJsonModePrintsOneMetricsDocumentAndNothingElse)
{
    ASSERT_EQ(run("campaign run --max-cycle-len 3 --store s.store --quiet "
                  "--metrics ''")
                  .status,
              0);
    for (const char *args :
         {"run --json mp", "run --json --stats --trace t.json mp",
          "campaign status --json --store s.store",
          "campaign query --json --store s.store --model GAM",
          "campaign query --json --store s.store --disagree GAM GAM0"}) {
        SCOPED_TRACE(args);
        const Outcome r = run(args);
        EXPECT_EQ(r.status, 0) << r.err;
        // fromJson() refuses anything before or after the document.
        const auto doc = gam::obs::MetricSnapshot::fromJson(r.out);
        ASSERT_TRUE(doc.has_value()) << r.out;
        EXPECT_FALSE(doc->counters.empty()) << r.out;
    }
}

TEST_F(Cli, ADirectoryOperandIsRefused)
{
    // A directory opens as an empty stream; it must not be read as an
    // empty litmus document or an empty model.
    fs::create_directories(work() / "d");
    for (const char *command :
         {"run", "print", "model show", "model check", "model lint"}) {
        SCOPED_TRACE(command);
        const Outcome r = run(std::string(command) + " d/");
        expectRefused(r, "d/");
        EXPECT_NE(r.err.find("not a regular file"), std::string::npos)
            << r.err;
    }
    // A missing file keeps its own complaint.
    const Outcome missing = run("print missing.litmus");
    expectRefused(missing, "missing.litmus");
    EXPECT_NE(missing.err.find("cannot open file"), std::string::npos)
        << missing.err;
}

TEST_F(Cli, AThreadLongerThanFortyEightInstructionsIsDecided)
{
    // Message passing with 50 register-only instructions between the
    // writer's stores: 55 instructions on thread 0.
    std::ofstream litmus(work() / "mp_long.litmus");
    litmus << "litmus mp_long\nlocation a 0x1000\nlocation b 0x1008\n"
           << "thread 0 {\n  li r8, 4096\n  li r9, 4104\n  li r7, 1\n"
           << "  st [r8], r7\n";
    for (int i = 0; i < 50; ++i)
        litmus << "  addi r10, r10, 1\n";
    litmus << "  st [r9], r7\n}\n"
           << "thread 1 {\n  li r8, 4096\n  li r9, 4104\n"
           << "  ld r1, [r9]\n  ld r2, [r8]\n}\n"
           << "condition 1:r1=1 & 1:r2=0\n";
    litmus.close();

    // Every model under every engine that decides it: 16 rows.
    const Outcome r = run("run mp_long.litmus --model SC --model TSO "
                          "--model GAM0 --model GAM --model ARM "
                          "--model 'Alpha*' --model PerLocSC");
    EXPECT_EQ(r.status, 0) << r.err;
    EXPECT_NE(r.out.find("16 verdicts, 0 mismatches"), std::string::npos)
        << r.out;
    // The GAM0, GAM, ARM and Alpha* machines reach the MP outcome.
    std::istringstream rows(r.out);
    int operational_allowed = 0;
    for (std::string row; std::getline(rows, row);) {
        operational_allowed += row.find(" operational ") != std::string::npos
            && row.find(" allowed ") != std::string::npos;
    }
    EXPECT_EQ(operational_allowed, 4) << r.out;
}

} // namespace

/**
 * @file
 * The persistent campaign decision store: a crash-safe append-log of
 * decided model queries, implementing harness::DecisionBackend.
 *
 * A million-test campaign cannot afford to lose its work to a crash,
 * nor to re-run every engine on resume, so each complete decision is
 * appended to an on-disk log as one fixed-size checksummed record
 * keyed by the same 64-bit queryKey the in-memory DecisionCache uses
 * -- (litmus::fingerprint, model, engine, cat model file).
 * Records carry the verdict plus a compact round-trip witness of the
 * outcome set (its size and order-independent 64-bit digest,
 * litmus::outcomeSetHash), not the set itself: campaigns need
 * verdicts, and the witness lets a sampled fresh re-decide prove the
 * stored answer still matches the engines bit-for-bit.
 *
 * Crash safety is recovery-side, not write-side: appends are plain
 * buffered writes, group-flushed every K records or T milliseconds
 * (StoreOptions; the campaign driver calls flush() once its workers
 * are done), and opening a store validates the log prefix record by
 * record, truncating everything from the first short or
 * checksum-failed record onward (a torn tail from a kill or power
 * cut) instead of refusing the file.  Lost tail records simply get
 * re-decided and re-appended when the campaign is re-run over the
 * store, which is how a killed campaign resumes; every surviving
 * record was validated, so a load never serves corrupted bytes.
 * Group flushing only widens the at-risk tail from one record to one
 * flush group.
 *
 * A file is a store only if it starts with the store header; one of
 * 0-15 bytes that is a prefix of the header is the torn header of a
 * killed run and opens as a fresh store.  DecisionStore::open()
 * refuses any other file, leaving its bytes untouched, and reports
 * why instead of aborting -- as it does for a path that cannot be
 * created or, when the store must already exist, a missing file.
 */

#ifndef GAM_CAMPAIGN_STORE_HH
#define GAM_CAMPAIGN_STORE_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/decision.hh"

namespace gam::campaign
{

/** One persisted decision, as recovered from or appended to the log. */
struct StoreRecord
{
    /** harness::queryKey of the decided query. */
    uint64_t key = 0;
    /** litmus::fingerprint of the decided test (query/status axis). */
    uint64_t testFingerprint = 0;
    /** litmus::outcomeSetHash of the engine's outcome set; the
     *  round-trip witness a fresh re-decide must reproduce. */
    uint64_t outcomeHash = 0;
    /** Outcome-set size (0 for ValueCover-prescreened verdicts). */
    uint32_t outcomeCount = 0;
    model::ModelKind model = model::ModelKind::GAM;
    model::Engine engine = model::Engine::Axiomatic;
    bool allowed = false;
    harness::PrescreenKind prescreened = harness::PrescreenKind::None;
};

/** Counters of one DecisionStore's lifetime (openStats + traffic). */
struct StoreStats
{
    /** Valid records recovered when the store was opened. */
    uint64_t loaded = 0;
    /** Torn-tail bytes dropped (and truncated away) at open. */
    uint64_t droppedBytes = 0;
    /** load() calls answered from the log. */
    uint64_t hits = 0;
    /** load() calls with no record. */
    uint64_t misses = 0;
    /** Records appended this session. */
    uint64_t appended = 0;
    /** store() offers skipped because the key was already present. */
    uint64_t duplicates = 0;
};

/** Write-side knobs of one DecisionStore. */
struct StoreOptions
{
    /**
     * Flush the append log after this many buffered records.  1
     * reproduces the original per-record flush (bench_campaign's A/B
     * baseline); the default trades at most one group of records --
     * bounded work, always recoverable by re-deciding -- for an
     * order-of-magnitude fewer flush syscalls on a cold campaign.
     */
    uint64_t flushEveryRecords = 256;
    /** Also flush when this many milliseconds have passed since the
     *  last one (0 disables the timer), so a slow trickle of appends
     *  still reaches the disk promptly. */
    uint64_t flushIntervalMs = 200;
};

/** What DecisionStore::open() does with a path that has no file. */
enum class StoreOpen : uint8_t
{
    /** Create a fresh store there (`campaign run`). */
    Create,
    /** Refuse it: reading commands never create a store. */
    Existing,
};

/** Outcome of one compactStores() merge. */
struct CompactStats
{
    /** Input files read. */
    uint64_t inputs = 0;
    /** Valid records scanned across all inputs. */
    uint64_t scanned = 0;
    /** Distinct keys written to the output. */
    uint64_t merged = 0;
    /** Records dropped as key duplicates (first input wins). */
    uint64_t duplicates = 0;
};

/**
 * The append-log store.  Thread-safe: campaign workers call
 * load()/store() concurrently through decide().  One process owns a
 * store file at a time (no cross-process locking).
 */
class DecisionStore final : public harness::DecisionBackend
{
  public:
    /**
     * Open the store at @p path, recovering every valid record and
     * truncating any torn tail; with StoreOpen::Create a missing file
     * becomes a fresh store.  Returns null, with the reason (naming
     * the file) in @p error when given, if the file is not a store,
     * cannot be read or created, or is missing under
     * StoreOpen::Existing; a refused file is left untouched.
     */
    static std::unique_ptr<DecisionStore>
    open(const std::string &path, StoreOpen mode,
         std::string *error = nullptr, StoreOptions options = {});

    /** open(path, StoreOpen::Create), asserting that it succeeds: for
     *  paths the caller owns (benchmarks, tests). */
    explicit DecisionStore(const std::string &path,
                           StoreOptions options = {});
    ~DecisionStore() override;

    DecisionStore(const DecisionStore &) = delete;
    DecisionStore &operator=(const DecisionStore &) = delete;

    /**
     * Reconstruct the persisted decision under @p key: verdict-only
     * (storeHit set, empty outcome set) -- see Decision::storeHit.
     */
    std::optional<harness::Decision> load(uint64_t key) override;

    /**
     * Append @p decision unless @p key is already present (first
     * write wins; the log never rewrites).  Incomplete decisions are
     * never offered by decide(), and would be ignored here anyway.
     */
    void store(uint64_t key, const harness::Query &query,
               const harness::Decision &decision) override;

    /** The raw record under @p key (verify sampling, query CLI). */
    std::optional<StoreRecord> record(uint64_t key) const;

    /** Visit every resident record (order unspecified). */
    void forEach(const std::function<void(const StoreRecord &)> &fn) const;

    /** Records resident (recovered + appended this session). */
    size_t size() const;

    StoreStats stats() const;

    /** Push buffered appends to the OS (group flushing defers this to
     *  every K records / T ms; call at durability boundaries). */
    void flush();

    const std::string &path() const { return filePath; }

  private:
    struct Unopened {};
    DecisionStore(const std::string &path, StoreOptions options,
                  Unopened);
    /** Recover the log and open it for appending; the reason on
     *  failure. */
    std::optional<std::string> recover(StoreOpen mode);
    void append(const StoreRecord &record);
    void flushLocked();

    const std::string filePath;
    const StoreOptions options;
    mutable std::mutex mu;
    std::unordered_map<uint64_t, StoreRecord> index;
    std::FILE *log = nullptr;
    StoreStats counters;
    /** Appends since the last flush, and when that flush happened. */
    uint64_t pendingAppends = 0;
    std::chrono::steady_clock::time_point lastFlush;
};

/**
 * Merge every valid record of @p inputs into a fresh store file at
 * @p output, deduping by key -- the first input file containing a key
 * wins, matching the store's own first-write-wins append rule.
 * Records are written in key order, so compacting the same inputs
 * always produces a byte-identical file.  Each input is opened with
 * full recovery (StoreOpen::Existing), so compaction also heals torn
 * tails.  An existing @p output is overwritten only if it passes the
 * header check DecisionStore::open() applies (a store, or a 0-15 byte
 * prefix of the header).  Returns nullopt, with the reason (naming the
 * file) in @p error when given, if an input is missing or not a store,
 * the output is also an input, an existing output is not a store, or
 * the output cannot be written; a refused output is left untouched,
 * and none is created when an input is refused.  The `campaign
 * compact` subcommand: campaigns split across several stores and
 * crashed runs leave multiple partial logs behind; one compacted
 * store serves a resume with a single index.
 */
std::optional<CompactStats>
compactStores(const std::vector<std::string> &inputs,
              const std::string &output, std::string *error = nullptr);

} // namespace gam::campaign

#endif // GAM_CAMPAIGN_STORE_HH

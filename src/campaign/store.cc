#include "campaign/store.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "base/hashing.hh"
#include "base/logging.hh"

namespace gam::campaign
{

namespace
{

// On-disk format: a 16-byte header followed by fixed 40-byte records,
// all fields little-endian.  The magic spells "GAMSTOR1".
constexpr uint64_t StoreMagic = 0x3152'4f54'534d'4147ull;
constexpr uint32_t StoreVersion = 1;
constexpr size_t HeaderSize = 16;
constexpr size_t RecordSize = 40;

void
putLe64(unsigned char *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

uint64_t
getLe64(const unsigned char *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(p[i]) << (8 * i);
    return v;
}

/** The four one-byte fields and the count, packed into one word. */
uint64_t
packMeta(const StoreRecord &r)
{
    return uint64_t(r.outcomeCount)
        | uint64_t(uint8_t(r.model)) << 32
        | uint64_t(uint8_t(r.engine)) << 40
        | uint64_t(r.allowed ? 1 : 0) << 48
        | uint64_t(uint8_t(r.prescreened)) << 56;
}

uint64_t
recordChecksum(uint64_t key, uint64_t test_fp, uint64_t outcome_hash,
               uint64_t meta)
{
    StateHasher h;
    h.add(key);
    h.add(test_fp);
    h.add(outcome_hash);
    h.add(meta);
    return h.digest();
}

void
encodeRecord(const StoreRecord &r, unsigned char (&buf)[RecordSize])
{
    const uint64_t meta = packMeta(r);
    putLe64(buf + 0, r.key);
    putLe64(buf + 8, r.testFingerprint);
    putLe64(buf + 16, r.outcomeHash);
    putLe64(buf + 24, meta);
    putLe64(buf + 32,
            recordChecksum(r.key, r.testFingerprint, r.outcomeHash, meta));
}

/** Checksum-validate and decode; nullopt means corrupt (torn tail). */
std::optional<StoreRecord>
decodeRecord(const unsigned char (&buf)[RecordSize])
{
    const uint64_t key = getLe64(buf + 0);
    const uint64_t test_fp = getLe64(buf + 8);
    const uint64_t outcome_hash = getLe64(buf + 16);
    const uint64_t meta = getLe64(buf + 24);
    const uint64_t sum = getLe64(buf + 32);
    if (recordChecksum(key, test_fp, outcome_hash, meta) != sum)
        return std::nullopt;

    const auto model = uint8_t(meta >> 32);
    const auto engine = uint8_t(meta >> 40);
    const auto allowed = uint8_t(meta >> 48);
    const auto prescreen = uint8_t(meta >> 56);
    // A checksum collision over garbage is astronomically unlikely,
    // but enum ranges are free to check and keep a bad record from
    // ever turning into an out-of-range enum.
    if (model > uint8_t(model::ModelKind::PerLocSC)
        || engine > uint8_t(model::Engine::Cat) || allowed > 1
        || prescreen > uint8_t(harness::PrescreenKind::ScDelegate))
        return std::nullopt;

    StoreRecord r;
    r.key = key;
    r.testFingerprint = test_fp;
    r.outcomeHash = outcome_hash;
    r.outcomeCount = uint32_t(meta);
    r.model = model::ModelKind(model);
    r.engine = model::Engine(engine);
    r.allowed = allowed != 0;
    r.prescreened = harness::PrescreenKind(prescreen);
    return r;
}

/** The header writeHeader() emits: magic, then the version (low u32). */
std::array<unsigned char, HeaderSize>
storeHeader()
{
    std::array<unsigned char, HeaderSize> buf = {};
    putLe64(buf.data() + 0, StoreMagic);
    putLe64(buf.data() + 8, uint64_t(StoreVersion));
    return buf;
}

bool
writeHeader(std::FILE *f)
{
    return std::fwrite(storeHeader().data(), 1, HeaderSize, f)
        == HeaderSize;
}

std::string
quoted(const std::string &path)
{
    return "'" + path + "'";
}

/** "<what> '<path>': <reason>", the reason errno gives for the call
 *  that just failed. */
std::string
failure(const char *what, const std::string &path)
{
    const std::error_code ec(errno, std::generic_category());
    return std::string(what) + " " + quoted(path) + ": " + ec.message();
}

/**
 * The header check an existing file must pass to be read as a store
 * or overwritten by one.  Reads up to HeaderSize bytes of @p in; a
 * store's full header passes, and so does a 0-15 byte file that is a
 * prefix of it (a killed run's torn header, reported through
 * @p torn).  Returns why the file is refused, to follow its name.
 */
const char *
checkHeader(std::FILE *in, bool &torn)
{
    unsigned char header[HeaderSize];
    const size_t got = std::fread(header, 1, HeaderSize, in);
    torn = got < HeaderSize;
    if (torn ? std::memcmp(header, storeHeader().data(), got) != 0
             : getLe64(header + 0) != StoreMagic)
        return "is not a campaign decision store";
    if (!torn && uint32_t(getLe64(header + 8)) != StoreVersion)
        return "is a campaign store of an unsupported version";
    return nullptr;
}

} // namespace

DecisionStore::DecisionStore(const std::string &path, StoreOptions opts,
                             Unopened)
    : filePath(path), options(opts),
      lastFlush(std::chrono::steady_clock::now())
{
}

DecisionStore::DecisionStore(const std::string &path, StoreOptions opts)
    : DecisionStore(path, opts, Unopened{})
{
    const std::optional<std::string> error = recover(StoreOpen::Create);
    GAM_ASSERT(!error, "%s", error->c_str());
}

std::unique_ptr<DecisionStore>
DecisionStore::open(const std::string &path, StoreOpen mode,
                    std::string *error, StoreOptions options)
{
    std::unique_ptr<DecisionStore> store(
        new DecisionStore(path, options, Unopened{}));
    if (std::optional<std::string> why = store->recover(mode)) {
        if (error)
            *error = std::move(*why);
        return nullptr;
    }
    return store;
}

std::optional<std::string>
DecisionStore::recover(StoreOpen mode)
{
    namespace fs = std::filesystem;
    const std::string name = quoted(filePath);

    // Recovery pass: read the existing log front to back, keeping the
    // longest valid prefix.  Nothing is written before the file has
    // proved to be a store.
    std::error_code ec;
    const fs::file_status status = fs::status(filePath, ec);
    uint64_t file_size = 0;
    if (fs::exists(status)) {
        if (!fs::is_regular_file(status))
            return name + " is not a campaign decision store";
        std::FILE *in = std::fopen(filePath.c_str(), "rb");
        if (!in)
            return failure("cannot read campaign store", filePath);
        bool torn = false;
        const char *refused = checkHeader(in, torn);
        unsigned char buf[RecordSize];
        while (!refused && !torn
               && std::fread(buf, 1, RecordSize, in) == RecordSize) {
            auto r = decodeRecord(buf);
            if (!r)
                break; // first corrupt record: the tail starts here
            if (index.emplace(r->key, *r).second)
                ++counters.loaded;
            else
                ++counters.duplicates;
        }
        std::fclose(in);
        if (refused)
            return name + " " + refused;
        file_size = fs::file_size(filePath, ec);
        if (ec)
            return "cannot size campaign store " + name + ": "
                + ec.message();
    } else if (mode == StoreOpen::Existing) {
        return "no campaign store at " + name;
    }

    const uint64_t good_size =
        HeaderSize + (counters.loaded + counters.duplicates) * RecordSize;
    if (file_size > good_size) {
        // Torn or corrupt tail: drop it now so the recovered prefix
        // and new appends form one contiguous valid log.
        counters.droppedBytes = file_size - good_size;
        fs::resize_file(filePath, good_size, ec);
        if (ec) {
            return "campaign store " + name
                + ": cannot truncate torn tail: " + ec.message();
        }
        file_size = good_size;
    }

    if (file_size < HeaderSize) {
        // New file, or a torn header: start a fresh log.
        counters.droppedBytes += file_size;
        std::FILE *f = std::fopen(filePath.c_str(), "wb");
        if (!f)
            return failure("cannot create campaign store", filePath);
        const bool written = writeHeader(f);
        if (std::fclose(f) != 0 || !written)
            return "campaign store " + name + ": short header write";
    }

    log = std::fopen(filePath.c_str(), "ab");
    if (!log)
        return failure("cannot append to campaign store", filePath);
    return std::nullopt;
}

DecisionStore::~DecisionStore()
{
    if (log)
        std::fclose(log);
}

std::optional<harness::Decision>
DecisionStore::load(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = index.find(key);
    if (it == index.end()) {
        ++counters.misses;
        return std::nullopt;
    }
    ++counters.hits;
    const StoreRecord &r = it->second;
    harness::Decision d;
    d.allowed = r.allowed;
    d.engine = r.engine;
    d.prescreened = r.prescreened;
    d.complete = true;
    d.storeHit = true;
    return d;
}

void
DecisionStore::store(uint64_t key, const harness::Query &query,
                     const harness::Decision &decision)
{
    if (!decision.complete)
        return;
    GAM_ASSERT(!decision.storeHit,
               "campaign store: refusing to re-persist a verdict-only "
               "store hit");

    StoreRecord r;
    r.key = key;
    r.testFingerprint = litmus::fingerprint(*query.test);
    r.outcomeHash = litmus::outcomeSetHash(decision.outcomes);
    r.outcomeCount = uint32_t(decision.outcomes.size());
    r.model = query.model;
    r.engine = decision.engine;
    r.allowed = decision.allowed;
    r.prescreened = decision.prescreened;

    std::lock_guard<std::mutex> lock(mu);
    if (!index.emplace(key, r).second) {
        ++counters.duplicates;
        return;
    }
    append(r);
}

void
DecisionStore::append(const StoreRecord &r)
{
    unsigned char buf[RecordSize];
    encodeRecord(r, buf);
    const size_t n = std::fwrite(buf, 1, RecordSize, log);
    GAM_ASSERT(n == RecordSize, "campaign store '%s': append failed",
               filePath.c_str());
    ++counters.appended;
    // Group flush: fflush every K records or T ms instead of per
    // record.  A kill between flushes loses at most one group of
    // finished answers to the torn-tail truncation at the next open
    // -- bounded, re-decidable work -- while a cold campaign stops
    // paying one flush per decision.
    ++pendingAppends;
    const bool due = pendingAppends >= options.flushEveryRecords
        || (options.flushIntervalMs != 0
            && std::chrono::steady_clock::now() - lastFlush
                >= std::chrono::milliseconds(options.flushIntervalMs));
    if (due)
        flushLocked();
}

std::optional<StoreRecord>
DecisionStore::record(uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = index.find(key);
    if (it == index.end())
        return std::nullopt;
    return it->second;
}

void
DecisionStore::forEach(
    const std::function<void(const StoreRecord &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &[key, r] : index)
        fn(r);
}

size_t
DecisionStore::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return index.size();
}

StoreStats
DecisionStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

void
DecisionStore::flush()
{
    std::lock_guard<std::mutex> lock(mu);
    flushLocked();
}

void
DecisionStore::flushLocked()
{
    if (log)
        std::fflush(log);
    pendingAppends = 0;
    lastFlush = std::chrono::steady_clock::now();
}

std::optional<CompactStats>
compactStores(const std::vector<std::string> &inputs,
              const std::string &output, std::string *error)
{
    auto fail = [&](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };
    if (std::find(inputs.begin(), inputs.end(), output) != inputs.end()) {
        return fail("campaign compact: output " + quoted(output)
                    + " is also an input");
    }
    // Overwrite only a store (or a torn header): any other file is
    // refused, byte for byte untouched.
    if (std::FILE *existing = std::fopen(output.c_str(), "rb")) {
        bool torn = false;
        const char *refused = checkHeader(existing, torn);
        std::fclose(existing);
        if (refused) {
            return fail("campaign compact: output " + quoted(output) + " "
                        + refused);
        }
    }

    CompactStats stats;
    std::unordered_map<uint64_t, StoreRecord> merged;
    for (const std::string &in : inputs) {
        auto store = DecisionStore::open(in, StoreOpen::Existing, error);
        if (!store)
            return std::nullopt;
        ++stats.inputs;
        store->forEach([&](const StoreRecord &r) {
            ++stats.scanned;
            if (!merged.emplace(r.key, r).second)
                ++stats.duplicates;
        });
    }

    // Key order makes the output a pure function of the merged record
    // set: compacting the same inputs twice yields identical bytes.
    std::vector<const StoreRecord *> ordered;
    ordered.reserve(merged.size());
    for (const auto &[key, r] : merged)
        ordered.push_back(&r);
    std::sort(ordered.begin(), ordered.end(),
              [](const StoreRecord *a, const StoreRecord *b) {
                  return a->key < b->key;
              });

    std::FILE *out = std::fopen(output.c_str(), "wb");
    if (!out)
        return fail(failure("campaign compact: cannot create", output));
    bool written = writeHeader(out);
    for (const StoreRecord *r : ordered) {
        unsigned char buf[RecordSize];
        encodeRecord(*r, buf);
        written = written
            && std::fwrite(buf, 1, RecordSize, out) == RecordSize;
    }
    written = std::fflush(out) == 0 && written;
    if (std::fclose(out) != 0 || !written)
        return fail("campaign compact: short write to " + quoted(output));
    stats.merged = ordered.size();
    return stats;
}

} // namespace gam::campaign

// Hostile-input corpus: every fixture under tests/data/corrupt must be
// rejected with a robust::Error carrying StatusCode::kParseError and a
// precise message — never accepted, never crashed on, never allocated
// for (the huge-header fixtures would OOM a reader that trusted the
// declared counts). Runs clean under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>

#include "check/verify_hypergraph.h"
#include "hgr_oracle.h"
#include "hypergraph/bench_format.h"
#include "hypergraph/io.h"
#include "hypergraph/netd_format.h"
#include "robust/checkpoint.h"
#include "robust/status.h"
#include "robust/wire.h"
#include "serve/job.h"
#include "serve/journal.h"
#include "serve/result_cache.h"

namespace mlpart {
namespace {

std::string corruptPath(const std::string& name) {
    return std::string(MLPART_TEST_DATA_DIR) + "/corrupt/" + name;
}

struct CorruptCase {
    const char* file;
    const char* expectedSubstring;
};

// One entry per fixture; the substring pins the diagnostic so a future
// refactor cannot silently degrade the error message.
const CorruptCase kCases[] = {
    {"empty.hgr", "empty input"},
    {"header_negative.hgr", "negative counts"},
    {"header_huge_modules.hgr", "exceeds the 2^30 limit"},
    {"header_huge_nets.hgr", "implausible for a"},
    {"bad_fmt.hgr", "unsupported fmt code"},
    {"truncated_nets.hgr", "truncated net list"},
    {"pin_out_of_range.hgr", "pin id out of range"},
    {"net_no_pins.hgr", "net with no pins"},
    {"zero_weight.hgr", "net weight must be >= 1"},
    {"bad_module_weight.hgr", "malformed module weight"},
    {"garbage_pin_token.hgr", "malformed pin id (line 2)"},     // "1 2 x 3"
    {"pin_id_overflow.hgr", "pin id out of range (line 3)"},    // 20-digit id
    {"module_weight_suffix.hgr", "malformed module weight"},    // "5x"
    {"header_garbage_fmt.hgr", "malformed fmt code (line 1)"},  // "1 3 abc"
    {"negative_module_weight.hgr", "negative module weight"},   // "-3", fmt 10
    {"huge_net_weight.hgr", "net weight exceeds the 2^31-1 limit"},
    {"huge_module_weight.hgr", "module weight exceeds the 2^31-1 limit"},
    {"bad_header.netD", "malformed header"},
    {"pin_count_lie.netD", "header declares 5 pins, file contains 4"},
    {"huge_pins.netD", "implausible for a"},
    {"bad_flag.netD", "pin flag must be 's' or 'l'"},
    {"first_pin_continues.netD", "first pin must start a net"},
    {"zero_modules.netD", "nonsensical header counts"},
    {"undriven.bench", "'G2' is never driven"},
    {"malformed_gate.bench", "malformed gate expression"},
    {"duplicate_def.bench", "duplicate definition of 'G1'"},
};

Hypergraph readByExtension(const std::string& path) {
    if (path.size() >= 6 && path.compare(path.size() - 6, 6, ".bench") == 0)
        return readBenchFile(path);
    if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".netD") == 0)
        return readNetDFile(path);
    return readHgrFile(path);
}

TEST(CorruptCorpus, EveryFixtureRejectedWithParseError) {
    for (const CorruptCase& c : kCases) {
        SCOPED_TRACE(c.file);
        const std::string path = corruptPath(c.file);
        bool threw = false;
        try {
            (void)readByExtension(path);
        } catch (const robust::Error& e) {
            threw = true;
            EXPECT_EQ(e.code(), robust::StatusCode::kParseError);
            EXPECT_NE(std::string(e.what()).find(c.expectedSubstring), std::string::npos)
                << "actual message: " << e.what();
        }
        EXPECT_TRUE(threw) << "fixture was accepted instead of rejected";
    }
}

// Damaged binary checkpoints: every class of corruption — torn write,
// bit rot, wrong version, foreign file, damaged header, a file in the
// version-1 layout that preceded the record codec — must surface as
// a clean Error(kParseError) from loadCheckpoint, which the resume path
// turns into a fresh-start fallback. A crash here would turn "lost a
// checkpoint" into "lost the whole run".
const CorruptCase kCheckpointCases[] = {
    {"zero_byte.ckpt", "empty checkpoint file (zero bytes)"},
    {"truncated.ckpt", "truncated"},
    {"bitflip_section.ckpt", "CRC mismatch (bit rot or torn write)"},
    {"wrong_version.ckpt", "unsupported version"},
    {"bad_magic.ckpt", "bad magic"},
    {"header_crc.ckpt", "header CRC mismatch"},
    {"too_short.ckpt", "too short"},
    {"legacy_v1.ckpt", "header length over the cap"}, // the version-1 layout
};

TEST(CorruptCorpus, EveryCheckpointFixtureRejectedWithParseError) {
    for (const CorruptCase& c : kCheckpointCases) {
        SCOPED_TRACE(c.file);
        bool threw = false;
        try {
            (void)robust::loadCheckpoint(corruptPath(c.file));
        } catch (const robust::Error& e) {
            threw = true;
            EXPECT_EQ(e.code(), robust::StatusCode::kParseError);
            EXPECT_NE(std::string(e.what()).find(c.expectedSubstring), std::string::npos)
                << "actual message: " << e.what();
        }
        EXPECT_TRUE(threw) << "fixture was accepted instead of rejected";
    }
}

// The base fixture is intact; what is stale is the caller's expectation.
// 0 means "don't verify" and must accept the same file.
TEST(CorruptCorpus, StaleCheckpointFingerprintRejected) {
    const std::string path = corruptPath("valid_base.ckpt");
    EXPECT_NO_THROW((void)robust::loadCheckpoint(path));
    EXPECT_NO_THROW((void)robust::loadCheckpoint(path, 0x1122334455667788ULL));
    try {
        (void)robust::loadCheckpoint(path, 0xDEADBEEFULL);
        FAIL() << "stale fingerprint was accepted";
    } catch (const robust::Error& e) {
        EXPECT_EQ(e.code(), robust::StatusCode::kParseError);
        EXPECT_NE(std::string(e.what()).find("stale config fingerprint"), std::string::npos);
    }
}

// robust::Error derives from std::runtime_error, so pre-taxonomy call
// sites that catch the standard hierarchy still see reader failures.
TEST(CorruptCorpus, ErrorsRemainCatchableAsRuntimeError) {
    EXPECT_THROW((void)readHgrFile(corruptPath("empty.hgr")), std::runtime_error);
    EXPECT_THROW((void)readNetDFile(corruptPath("bad_flag.netD")), std::runtime_error);
    EXPECT_THROW((void)readBenchFile(corruptPath("undriven.bench")), std::runtime_error);
}

// Damaged write-ahead journals (DESIGN.md §16). Unlike the readers
// above, Journal::recover must NOT throw: the contract is
// truncate-and-continue — drop the damaged tail, keep every record in
// front of it, and come back up serving. Each fixture holds one good
// Admit+Start for job "alpha" followed by one damage class; the
// exceptions are journal_bad_magic.wal, whose very first record is
// rotten, and journal_legacy_v1.wal, written in the layout that preceded
// the record codec, so recovery keeps nothing. recover() truncates the file in place, so
// every fixture is copied into a scratch state dir first.
struct JournalCase {
    const char* file;
    int expectedPending; ///< jobs surviving in front of the damage
};

const JournalCase kJournalCases[] = {
    {"journal_bad_magic.wal", 0},     // rotten first tag: CRC mismatch
    {"journal_bad_type.wal", 1},      // CRC-valid record, unknown tag
    {"journal_torn_header.wal", 1},   // tail torn inside the 16-byte header
    {"journal_torn_payload.wal", 1},  // header promises bytes the file lacks
    {"journal_crc_mismatch.wal", 1},  // payload flipped after CRC
    {"journal_huge_len.wal", 1},      // declared length over the 2^28 cap
    {"journal_orphan_done.wal", 1},   // Done for a never-admitted seq
    {"journal_garbage_admit.wal", 1}, // CRC-valid, undecodable request
    {"journal_legacy_v1.wal", 0},     // 'MLJR' layout before the record codec
};

std::string journalScratchDir() {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "mlpart_corrupt_journal";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

TEST(CorruptCorpus, EveryJournalFixtureRecoversByTruncation) {
    for (const JournalCase& c : kJournalCases) {
        SCOPED_TRACE(c.file);
        const std::string dir = journalScratchDir();
        const std::string wal = dir + "/journal.wal";
        std::filesystem::copy_file(corruptPath(c.file), wal);
        const auto originalSize =
            static_cast<std::int64_t>(std::filesystem::file_size(wal));

        serve::Journal::Recovery rec;
        {
            serve::Journal journal(dir);
            ASSERT_NO_THROW(rec = journal.recover());
        }
        EXPECT_FALSE(rec.unreadable);
        EXPECT_GT(rec.truncatedBytes, 0);
        EXPECT_EQ(static_cast<int>(rec.pending.size()), c.expectedPending);
        EXPECT_TRUE(rec.completed.empty());
        if (c.expectedPending == 1) {
            EXPECT_EQ(rec.pending[0].req.id, "alpha");
            EXPECT_TRUE(rec.pending[0].started);
        }
        // The damage is physically gone from disk...
        const auto survivingSize =
            static_cast<std::int64_t>(std::filesystem::file_size(wal));
        EXPECT_EQ(survivingSize + rec.truncatedBytes, originalSize);
        // ...so a second recovery sees a clean journal: same plan, no
        // further truncation. This is what makes a crash *during*
        // recovery safe to retry.
        serve::Journal again(dir);
        const serve::Journal::Recovery rec2 = again.recover();
        EXPECT_EQ(rec2.truncatedBytes, 0);
        EXPECT_EQ(rec2.pending.size(), rec.pending.size());
    }
}

// Damaged persisted result caches. loadFromFile never throws: header
// damage drops the whole file, the entries in front of the first damaged
// record load (a CRC-failed one counts as rejected), and CRC-valid
// entries whose outcomes lie (failed status, negative cut, deadline-hit)
// are refused so a rotten snapshot can never be served as a cache hit.
struct CacheCase {
    const char* file;
    int expectedLoaded;
    std::int64_t expectedRejected;
};

const CacheCase kCacheCases[] = {
    {"cache_bad_magic.bin", 0, 0},       // foreign file
    {"cache_bad_version.bin", 0, 0},     // format from the future
    {"cache_header_crc.bin", 0, 0},      // header bit rot
    {"cache_truncated_entry.bin", 1, 0}, // torn tail: keep the front
    {"cache_entry_crc.bin", 1, 1},       // one entry bit-rotten
    {"cache_len_lie.bin", 1, 0},         // absurd declared entry length
    {"cache_lying_entry.bin", 1, 3},     // CRC-valid but implausible
    {"cache_legacy_v1.bin", 0, 0},       // layout before the record codec
};

TEST(CorruptCorpus, EveryCacheFixtureLoadsOnlyTrustworthyEntries) {
    for (const CacheCase& c : kCacheCases) {
        SCOPED_TRACE(c.file);
        serve::ResultCache cache(16);
        int loaded = -1;
        ASSERT_NO_THROW(loaded = cache.loadFromFile(corruptPath(c.file)));
        EXPECT_EQ(loaded, c.expectedLoaded);
        EXPECT_EQ(cache.stats().loadRejected, c.expectedRejected);
        // Whatever survived must actually be servable.
        serve::JobOutcome out;
        if (c.expectedLoaded >= 1) {
            EXPECT_TRUE(cache.lookup(0x1111, out));
            EXPECT_TRUE(out.status.ok());
            EXPECT_EQ(out.cut, 3);
        }
        // The damaged / lying entries must never surface: in every
        // fixture the 0x2222+ fingerprints carry the corruption.
        EXPECT_FALSE(cache.lookup(0x2222, out));
        EXPECT_FALSE(cache.lookup(0x3333, out));
        EXPECT_FALSE(cache.lookup(0x4444, out));
    }
}

// Seeded mutants of the four record formats (robust/wire.h): bit flips,
// truncations and record-length overwrites, one to three per mutant.
// Each format's damage policy must hold on every mutant:
//   journal     recovery keeps a prefix of the original records;
//   cache       loads only a subset of the written (fingerprint, outcome)
//               pairs — a flipped fingerprint must never load;
//   checkpoint  parses to the original or throws kParseError;
//   pipe        parses to the original or throws kParseError.
constexpr int kRecordMutants = 400;

std::vector<std::size_t> recordOffsets(const std::vector<std::uint8_t>& bytes) {
    const robust::RecordScan scan = robust::scanRecords(bytes.data(), bytes.size(), 1u << 30);
    EXPECT_EQ(scan.damage, robust::RecordDamage::kNone);
    std::vector<std::size_t> offsets;
    for (const robust::Record& r : scan.records) offsets.push_back(r.offset);
    offsets.push_back(bytes.size());
    return offsets;
}

std::vector<std::uint8_t> mutateRecords(std::vector<std::uint8_t> bytes,
                                        const std::vector<std::size_t>& offsets,
                                        std::mt19937_64& rng) {
    const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    for (int op = 1 + static_cast<int>(pick(3)); op > 0 && !bytes.empty(); --op) {
        const std::size_t at = offsets[pick(offsets.size() - 1)] + 4; // a length field
        if (pick(3) == 0) {
            bytes[pick(bytes.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
        } else if (pick(2) == 0) {
            bytes.resize(pick(bytes.size()));
        } else if (at + 8 <= bytes.size()) {
            // A random length, a near miss, or one past any cap.
            std::uint64_t len = 0;
            for (int i = 0; i < 8; ++i) len |= std::uint64_t{bytes[at + i]} << (8 * i);
            const std::uint64_t how = pick(3);
            len = how == 0 ? rng() : how == 1 ? len + 1 + pick(16) - 8 : len << 20;
            for (int i = 0; i < 8; ++i) bytes[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
        }
    }
    return bytes;
}

void writeBytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> readBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Every mutant of `original` must come back from `reencode` (parse,
/// then encode again) byte-identical, or throw kParseError. Returns how
/// many mutants were refused.
template <typename Reencode>
int expectOriginalOrParseError(const std::vector<std::uint8_t>& original, Reencode reencode,
                               std::mt19937_64& rng) {
    const std::vector<std::size_t> offsets = recordOffsets(original);
    int refused = 0;
    for (int i = 0; i < kRecordMutants; ++i) {
        try {
            EXPECT_EQ(reencode(mutateRecords(original, offsets, rng)), original) << "mutant " << i;
        } catch (const robust::Error& e) {
            EXPECT_EQ(e.code(), robust::StatusCode::kParseError) << e.what();
            ++refused;
        }
    }
    return refused;
}

serve::JobOutcome sampleOutcome(std::uint64_t fingerprint) {
    serve::JobOutcome o;
    o.cut = static_cast<std::int64_t>(fingerprint % 97);
    o.runsOk = 2;
    o.partitionCrc = static_cast<std::uint32_t>(fingerprint * 0x9E3779B1u);
    return o;
}

TEST(CorruptCorpus, SeededRecordMutantsKeepEachFormatsDamagePolicy) {
    std::mt19937_64 rng(20261020);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "mlpart_record_mutants";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // Journal: the surviving file is the original cut at a record
    // boundary, and recovery plans exactly what that prefix holds.
    const std::string wal = (dir / "journal.wal").string();
    {
        serve::Journal j(dir.string());
        (void)j.recover();
        serve::JobRequest req;
        req.inlineHgr = "2 4\n1 2\n3 4\n";
        serve::JobResult res;
        res.outcome = sampleOutcome(3);
        for (std::uint64_t seq = 1; seq <= 3; ++seq) {
            req.id = res.id = "job" + std::to_string(seq);
            ASSERT_TRUE(j.appendAdmit(seq, req).ok());
            ASSERT_TRUE(j.appendStart(seq).ok());
            const robust::Status closed = seq == 1   ? j.appendDone(seq, res)
                                          : seq == 2 ? j.appendDrop(seq)
                                                     : robust::Status::okStatus();
            ASSERT_TRUE(closed.ok());
        }
    }
    const std::vector<std::uint8_t> journal = readBytes(wal);
    const std::vector<std::size_t> offsets = recordOffsets(journal);
    const auto recoveryPlan = [&](const std::vector<std::uint8_t>& bytes) {
        writeBytes(wal, bytes);
        serve::Journal j(dir.string());
        std::string plan;
        const serve::Journal::Recovery rec = j.recover();
        for (const auto& p : rec.pending) plan += p.req.id + (p.started ? "+start " : " ");
        for (const auto& c : rec.completed) plan += c.id + "+done ";
        return plan;
    };
    std::vector<std::string> prefixPlans;
    for (const std::size_t off : offsets)
        prefixPlans.push_back(recoveryPlan({journal.begin(), journal.begin() + off}));
    int shortened = 0;
    for (int i = 0; i < kRecordMutants; ++i) {
        const std::string plan = recoveryPlan(mutateRecords(journal, offsets, rng));
        const std::vector<std::uint8_t> kept = readBytes(wal);
        const auto k = std::find(offsets.begin(), offsets.end(), kept.size()) - offsets.begin();
        ASSERT_LT(k, offsets.size()) << "mutant " << i << " kept a partial record";
        ASSERT_TRUE(std::equal(kept.begin(), kept.end(), journal.begin())) << "mutant " << i;
        ASSERT_EQ(plan, prefixPlans[static_cast<std::size_t>(k)]) << "mutant " << i;
        shortened += kept.size() < journal.size();
    }
    EXPECT_GT(shortened, kRecordMutants / 2);

    // Cache: every loaded entry is one that was written, under its key.
    const std::string cachePath = (dir / "cache.bin").string();
    const std::uint64_t fingerprints[] = {0x1111, 0x2222, 0x3333};
    {
        serve::ResultCache cache(16);
        for (const std::uint64_t fp : fingerprints) cache.insert(fp, sampleOutcome(fp));
        ASSERT_TRUE(cache.saveToFile(cachePath).ok());
    }
    const std::vector<std::uint8_t> cacheBytes = readBytes(cachePath);
    const std::vector<std::size_t> cacheOffsets = recordOffsets(cacheBytes);
    int partial = 0;
    for (int i = 0; i < kRecordMutants; ++i) {
        writeBytes(cachePath, mutateRecords(cacheBytes, cacheOffsets, rng));
        serve::ResultCache cache(16);
        const int loaded = cache.loadFromFile(cachePath);
        int written = 0;
        for (const std::uint64_t fp : fingerprints) {
            serve::JobOutcome out;
            if (!cache.lookup(fp, out)) continue;
            ++written;
            ASSERT_EQ(serve::encodeJobOutcome(out), serve::encodeJobOutcome(sampleOutcome(fp)));
        }
        ASSERT_EQ(cache.stats().entries, loaded) << "mutant " << i;
        ASSERT_EQ(written, loaded) << "mutant " << i << " loaded a key that was never written";
        partial += loaded < 3;
    }
    EXPECT_GT(partial, kRecordMutants / 2);

    // Checkpoint: all or nothing, including a cut at every record boundary.
    const std::vector<std::uint8_t> ckpt = readBytes(corruptPath("valid_base.ckpt"));
    const std::vector<std::size_t> ckptOffsets = recordOffsets(ckpt);
    for (std::size_t k = 0; k + 1 < ckptOffsets.size(); ++k) {
        try {
            (void)robust::parseCheckpoint(ckpt.data(), ckptOffsets[k]);
            ADD_FAILURE() << "checkpoint cut at record " << k << " parsed";
        } catch (const robust::Error& e) {
            EXPECT_EQ(e.code(), robust::StatusCode::kParseError);
        }
    }
    const auto reparseCheckpoint = [](const std::vector<std::uint8_t>& m) {
        return robust::serializeCheckpoint(robust::parseCheckpoint(m.data(), m.size()));
    };
    EXPECT_GT(expectOriginalOrParseError(ckpt, reparseCheckpoint, rng), kRecordMutants * 9 / 10);

    // Pipe: the outcome that was sent, or a parse error.
    const auto outcomeRecord = [](const serve::JobOutcome& o) {
        robust::WireWriter w;
        robust::appendRecord(w, serve::kOutcomeRecordTag, serve::encodeJobOutcome(o));
        return std::move(w.bytes);
    };
    const auto reparsePipe = [&](const std::vector<std::uint8_t>& m) {
        const robust::Record rec = serve::pipeRecord(m.data(), m.size(), serve::kOutcomeRecordTag);
        return outcomeRecord(serve::decodeJobOutcome(rec.payload, rec.size));
    };
    EXPECT_GT(expectOriginalOrParseError(outcomeRecord(sampleOutcome(12)), reparsePipe, rng),
              kRecordMutants * 9 / 10);
    std::filesystem::remove_all(dir);
}

// Seeded byte mutations of small valid .hgr files: bit flips, truncations,
// inserted digit runs, inserted garbage, inserted signs and duplicated
// lines, one to three per mutant. Every mutant must either parse into a
// hypergraph that passes check::verifyHypergraph or be rejected with
// kParseError — no other exception, no crash, and (under ASan+UBSan) no
// memory error or overflow. A mutant the historical reader also accepts
// must come out identical to its result.
TEST(CorruptCorpus, SeededByteMutantsParseOrFailWithParseError) {
    const std::string bases[] = {
        "% mutation base, fmt 11\n"
        "10 8 11\n2 1 2 3\n1 2 4\n3 3 5 6 7\n1 1 8\n4 4 5\n1 6 7 8\n2 2 3\n"
        "1 1 5 8\n5 7 8\n1 3 4 6\n1\n2\n3\n1\n1\n4\n2\n1\n",
        "6 7\r\n1 2\r\n2 3 4\r\n\r\n4 5\t6\r\n% comment\r\n6 7 1\r\n3 5\r\n1 7\r\n",
    };
    std::mt19937_64 rng(20261017);
    const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
    int accepted = 0;
    int rejected = 0;
    int comparedWithOracle = 0;
    for (int i = 0; i < 4000; ++i) {
        std::string text = bases[i % 2];
        const int ops = 1 + static_cast<int>(pick(3));
        for (int op = 0; op < ops && !text.empty(); ++op) {
            const std::size_t pos = pick(text.size());
            switch (pick(6)) {
            case 0: text[pos] = static_cast<char>(text[pos] ^ (1 << pick(8))); break;
            case 1: text.resize(pos); break;
            case 2: {
                std::string digits(1 + pick(24), '0');
                for (char& c : digits) c = static_cast<char>('0' + pick(10));
                text.insert(pos, digits);
                break;
            }
            case 3: {
                // Half the bytes come from the format's own punctuation,
                // so signs, comments and line breaks land mid-token.
                static constexpr char kPunct[] = " -+%\t\r\n\v";
                std::string garbage(1 + pick(6), '\0');
                for (char& c : garbage)
                    c = pick(2) ? kPunct[pick(sizeof kPunct - 1)] : static_cast<char>(pick(256));
                text.insert(pos, garbage);
                break;
            }
            case 4: {
                // A sign in front of a whole number: negative ids, weights
                // and counts.
                std::size_t at = pos;
                while (at > 0 && text[at - 1] >= '0' && text[at - 1] <= '9') --at;
                text.insert(at, 1, pick(4) ? '-' : '+');
                break;
            }
            default: {
                const std::size_t prev = pos == 0 ? std::string::npos : text.rfind('\n', pos - 1);
                const std::size_t begin = prev == std::string::npos ? 0 : prev + 1;
                const std::size_t nl = text.find('\n', pos);
                const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
                text.insert(end, text.substr(begin, end - begin));
                break;
            }
            }
        }
        SCOPED_TRACE("mutant " + std::to_string(i));
        try {
            const Hypergraph h = readHgrText(text, static_cast<std::int64_t>(text.size()));
            ++accepted;
            const check::CheckResult r = check::verifyHypergraph(h);
            ASSERT_TRUE(r.ok()) << r.summary();
            Hypergraph want;
            try {
                want = testing::referenceReadHgr(text, static_cast<std::int64_t>(text.size()));
            } catch (const std::exception&) {
                continue; // the historical reader refused it; nothing to compare
            }
            ++comparedWithOracle;
            const check::CheckResult same = check::verifyIdenticalHypergraphs(h, want);
            ASSERT_TRUE(same.ok()) << same.summary();
        } catch (const robust::Error& e) {
            ++rejected;
            ASSERT_EQ(e.code(), robust::StatusCode::kParseError) << e.what();
        } catch (const std::exception& e) {
            FAIL() << "mutant threw a non-parse error: " << e.what();
        }
    }
    // Both outcomes must be well represented, or the mutator is too weak
    // (or too destructive) to test anything.
    EXPECT_GT(accepted, 400);
    EXPECT_GT(rejected, 400);
    EXPECT_GT(comparedWithOracle, 200);
}

// The size-hint cap must not reject legitimate streams where no hint is
// available (stream overload, hint = -1): only the absolute 2^30 cap
// applies there.
TEST(CorruptCorpus, StreamReaderWithoutHintStillAppliesAbsoluteCap) {
    {
        std::istringstream in("2 999999999999\n1 2\n1 2\n");
        EXPECT_THROW((void)readHgr(in), robust::Error);
    }
    {
        // Huge-but-under-2^30 counts pass the header without a hint and
        // fail later on truncation — proving the plausibility cap is
        // hint-gated rather than guessing at stream sizes.
        std::istringstream in("999999999 4\n1 2\n");
        try {
            (void)readHgr(in);
            FAIL() << "expected a parse error";
        } catch (const robust::Error& e) {
            EXPECT_NE(std::string(e.what()).find("truncated net list"), std::string::npos);
        }
    }
}

} // namespace
} // namespace mlpart

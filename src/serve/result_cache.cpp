#include "serve/result_cache.h"

#include <algorithm>
#include <utility>

#include "robust/fs_shim.h"
#include "robust/wire.h"

namespace mlpart::serve {

namespace {

// Persisted snapshot `cache.bin`: robust records (wire.h, DESIGN.md §10
// "Record codec"), tag u32 | len u64 | crc32 u32 | payload:
//   'MLRC'  version u32 | entry count u32
//   'MLRE'  fingerprint u64 | encodeJobOutcome bytes   (one per entry)
// The fingerprint sits inside the CRC-covered payload, so bit rot cannot
// file an outcome under a key that was never written.
constexpr std::uint32_t kHeaderTag = 0x43524C4DU; // "MLRC"
constexpr std::uint32_t kEntryTag = 0x45524C4DU;  // "MLRE"
constexpr std::uint32_t kCacheVersion = 2;
constexpr std::uint64_t kMaxEntryBytes = std::uint64_t{1} << 28;

/// A persisted outcome must be something the live insert path could have
/// produced: a clean OK result with a real partition. Anything else is a
/// lie (hand-edited or cross-field-corrupted file) and must be dropped —
/// a poisoned cache entry served as a hit would silently change results.
bool plausibleOutcome(const JobOutcome& o) {
    return o.status.ok() && o.cut >= 0 && !o.deadlineHit;
}

/// Decodes one entry record; false for a foreign tag, an undecodable
/// payload, fingerprint 0, or an implausible outcome.
bool decodeEntry(const robust::Record& rec, std::uint64_t& fingerprint, JobOutcome& outcome) {
    if (rec.tag != kEntryTag) return false;
    try {
        robust::WireReader in = rec.reader();
        fingerprint = in.u64();
        outcome = decodeJobOutcome(in.data + in.pos, in.remaining());
    } catch (const robust::Error&) {
        return false;
    }
    return fingerprint != 0 && plausibleOutcome(outcome);
}

} // namespace

bool ResultCache::lookup(std::uint64_t fingerprint, JobOutcome& out) {
    if (fingerprint == 0 || maxEntries_ <= 0) return false;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(fingerprint);
    if (it == index_.end()) {
        ++stats_.misses;
        return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    out = it->second->outcome;
    ++stats_.hits;
    if (it->second->fromDisk) ++stats_.persistedHits;
    return true;
}

void ResultCache::insert(std::uint64_t fingerprint, const JobOutcome& outcome) {
    if (fingerprint == 0 || maxEntries_ <= 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(fingerprint);
    if (it != index_.end()) {
        it->second->outcome = outcome;
        it->second->fromDisk = false; // freshly computed beats loaded
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(Entry{fingerprint, outcome});
    index_[fingerprint] = lru_.begin();
    ++stats_.insertions;
    while (index_.size() > static_cast<std::size_t>(maxEntries_)) {
        index_.erase(lru_.back().fingerprint);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

void ResultCache::invalidate(std::uint64_t fingerprint) {
    if (fingerprint == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(fingerprint);
    if (it == index_.end()) return;
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.invalidations;
}

ResultCache::Stats ResultCache::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.entries = static_cast<std::int64_t>(index_.size());
    return s;
}

robust::Status ResultCache::saveToFile(const std::string& path) const {
    robust::WireWriter out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        robust::WireWriter header;
        header.u32(kCacheVersion);
        header.u32(static_cast<std::uint32_t>(index_.size()));
        robust::appendRecord(out, kHeaderTag, header.bytes);
        // Oldest first so reloading re-inserts in LRU order and the most
        // recent entries end up at the front again.
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            robust::WireWriter entry;
            entry.u64(it->fingerprint);
            const std::vector<std::uint8_t> outcome = encodeJobOutcome(it->outcome);
            entry.bytes.insert(entry.bytes.end(), outcome.begin(), outcome.end());
            robust::appendRecord(out, kEntryTag, entry.bytes);
        }
    }
    return robust::atomicWriteFile(path, out.bytes, "result-cache");
}

int ResultCache::loadFromFile(const std::string& path) {
    if (maxEntries_ <= 0) return 0;
    std::vector<std::uint8_t> bytes;
    try {
        bytes = robust::readFileDurable(path);
    } catch (const robust::Error&) {
        return 0; // missing or unreadable snapshot: cold cache, not an error
    }
    // A damaged, foreign or future-version header record drops the whole
    // file. Past it the valid prefix of entries loads: the scan stops at
    // the first damaged record, since no boundary behind it can be trusted.
    const robust::RecordScan scan =
        robust::scanRecords(bytes.data(), bytes.size(), kMaxEntryBytes);
    if (scan.records.empty() || scan.records[0].tag != kHeaderTag || scan.records[0].size != 8)
        return 0;
    robust::WireReader header = scan.records[0].reader();
    if (header.u32() != kCacheVersion) return 0;
    const std::uint32_t count = header.u32();
    const std::size_t present = std::min<std::size_t>(count, scan.records.size() - 1);

    std::vector<std::pair<std::uint64_t, JobOutcome>> valid;
    std::int64_t rejected = 0;
    for (std::size_t i = 1; i <= present; ++i) {
        std::uint64_t fingerprint = 0;
        JobOutcome outcome;
        if (decodeEntry(scan.records[i], fingerprint, outcome))
            valid.emplace_back(fingerprint, std::move(outcome));
        else
            ++rejected; // foreign, undecodable or lying: never served as a hit
    }
    // The entry the scan stopped at failed its CRC: count it as rejected.
    if (scan.damage == robust::RecordDamage::kCrcMismatch && present < count) ++rejected;

    std::lock_guard<std::mutex> lock(mu_);
    stats_.loadRejected += rejected;
    int loaded = 0;
    for (auto& [fingerprint, outcome] : valid) {
        if (index_.find(fingerprint) != index_.end()) continue; // live entry wins over disk
        lru_.push_front(Entry{fingerprint, std::move(outcome), /*fromDisk=*/true});
        index_[fingerprint] = lru_.begin();
        ++loaded;
        while (index_.size() > static_cast<std::size_t>(maxEntries_)) {
            index_.erase(lru_.back().fingerprint);
            lru_.pop_back();
        }
    }
    return loaded;
}

} // namespace mlpart::serve

#include "serve/journal.h"

#if !defined(_WIN32)

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "robust/fs_shim.h"
#include "robust/wire.h"

namespace mlpart::serve {

namespace {

using robust::Error;
using robust::Status;
using robust::StatusCode;

// Record tags (robust/wire.h records, little-endian four-character codes).
constexpr std::uint32_t kAdmit = 0x414A4C4DU; // "MLJA"
constexpr std::uint32_t kStart = 0x534A4C4DU; // "MLJS"
constexpr std::uint32_t kDone = 0x444A4C4DU;  // "MLJD"
constexpr std::uint32_t kDrop = 0x584A4C4DU;  // "MLJX"
// A record is one request (inline .hgr included) or one result; anything
// past this is a forged length field, not a job.
constexpr std::uint64_t kMaxRecordBytes = std::uint64_t{1} << 28;

std::vector<std::uint8_t> admitPayload(std::uint64_t seq, const JobRequest& req) {
    robust::WireWriter w;
    w.u64(seq);
    const std::vector<std::uint8_t> reqBytes = encodeJobRequest(req, 0);
    w.bytes.insert(w.bytes.end(), reqBytes.begin(), reqBytes.end());
    return std::move(w.bytes);
}

std::vector<std::uint8_t> seqPayload(std::uint64_t seq) {
    robust::WireWriter w;
    w.u64(seq);
    return std::move(w.bytes);
}

std::vector<std::uint8_t> donePayload(std::uint64_t seq, const JobResult& r) {
    robust::WireWriter w;
    w.u64(seq);
    w.str(r.id);
    w.i32(r.attempts);
    w.i32(r.crashes);
    w.u8(r.watchdogKilled ? 1 : 0);
    w.u8(r.retried ? 1 : 0);
    w.u8(r.cached ? 1 : 0);
    w.f64(r.queueSeconds);
    const std::vector<std::uint8_t> outcome = encodeJobOutcome(r.outcome);
    w.bytes.insert(w.bytes.end(), outcome.begin(), outcome.end());
    return std::move(w.bytes);
}

/// Throws Error(kParseError) on any inconsistency — the scanner turns
/// that into a truncate-at-this-record, never a crash.
JobResult parseDonePayload(robust::WireReader& r) {
    JobResult out;
    out.id = r.str();
    out.attempts = r.i32();
    out.crashes = r.i32();
    out.watchdogKilled = r.u8() != 0;
    out.retried = r.u8() != 0;
    out.cached = r.u8() != 0;
    out.queueSeconds = r.f64();
    out.outcome = decodeJobOutcome(r.data + r.pos, r.remaining()); // the rest of the record
    return out;
}

} // namespace

Journal::Journal(const std::string& stateDir) : path_(stateDir + "/journal.wal") {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) degraded_ = true; // unopenable state dir: serve non-durably
}

Journal::~Journal() {
    if (fd_ >= 0) ::close(fd_);
}

bool Journal::degraded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return degraded_;
}

std::int64_t Journal::compactions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return compactions_;
}

void Journal::reopenLocked() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
        degraded_ = true;
        return;
    }
    ::lseek(fd_, 0, SEEK_END);
}

Journal::Recovery Journal::recover() {
    std::lock_guard<std::mutex> lock(mu_);
    Recovery out;
    recovered_ = true;
    if (fd_ < 0) {
        out.unreadable = true;
        return out;
    }
    std::vector<std::uint8_t> bytes;
    try {
        bytes = robust::readFileDurable(path_);
    } catch (const Error&) {
        // Media error (real or injected fs.read.eio): the journal's
        // content is gone, but the service must still come up — start
        // with an empty journal rather than dying on a bad disk.
        out.unreadable = true;
        if (::ftruncate(fd_, 0) != 0) degraded_ = true;
        ::lseek(fd_, 0, SEEK_END);
        return out;
    }

    // Every record must be structurally whole (robust::scanRecords: sane
    // length, CRC) *and* semantically consistent (a known tag; Start/Done/
    // Drop must name an admitted seq). The first violation truncates the
    // file where that record starts — a torn tail from a crash mid-append
    // is the common case, and recovery must never be the thing that
    // crashes.
    const robust::RecordScan scan =
        robust::scanRecords(bytes.data(), bytes.size(), kMaxRecordBytes);
    std::size_t lastGood = scan.end;
    for (const robust::Record& rec : scan.records) {
        try {
            robust::WireReader r = rec.reader();
            const std::uint64_t seq = r.u64();
            if (rec.tag == kAdmit) {
                std::int32_t attempt = 0;
                (void)decodeJobRequest(rec.payload + r.pos, r.remaining(), attempt);
                // Dedupe by seq: recovery re-journals pending jobs under
                // their original seq, so a crash in that window leaves
                // two identical Admit records, not two executions.
                Outstanding& o = live_[seq];
                o.admitPayload.assign(rec.payload, rec.payload + rec.size);
                o.started = false;
            } else if (rec.tag == kStart) {
                const auto it = live_.find(seq);
                if (it == live_.end()) throw Error(StatusCode::kParseError, "orphan Start");
                it->second.started = true;
            } else if (rec.tag == kDone) {
                if (live_.find(seq) == live_.end())
                    throw Error(StatusCode::kParseError, "orphan Done");
                out.completed.push_back(parseDonePayload(r));
                live_.erase(seq);
            } else if (rec.tag == kDrop) {
                if (live_.find(seq) == live_.end())
                    throw Error(StatusCode::kParseError, "orphan Drop");
                live_.erase(seq);
            } else {
                throw Error(StatusCode::kParseError, "unknown record tag");
            }
            if (seq > out.maxSeq) out.maxSeq = seq; // only records that survive count
        } catch (const Error&) {
            lastGood = rec.offset;
            break;
        }
    }
    out.truncatedBytes = static_cast<std::int64_t>(bytes.size() - lastGood);
    if (out.truncatedBytes > 0 && ::ftruncate(fd_, static_cast<off_t>(lastGood)) != 0)
        degraded_ = true;
    ::lseek(fd_, 0, SEEK_END);

    out.pending.reserve(live_.size());
    for (const auto& [seq, o] : live_) {
        RecoveredJob job;
        job.seq = seq;
        job.started = o.started;
        std::int32_t attempt = 0;
        job.req = decodeJobRequest(o.admitPayload.data() + 8, o.admitPayload.size() - 8, attempt);
        out.pending.push_back(std::move(job));
    }
    return out;
}

Status Journal::appendLocked(std::uint32_t tag, const std::vector<std::uint8_t>& payload) {
    if (degraded_) return Status::okStatus(); // non-durable mode: no-op
    if (fd_ < 0) {
        degraded_ = true;
        return Status::error(StatusCode::kInternal, "journal: no open file descriptor");
    }
    robust::WireWriter record;
    robust::appendRecord(record, tag, payload);
    const Status st =
        robust::appendAndSync(fd_, record.bytes.data(), record.bytes.size(), "journal");
    if (!st.ok()) degraded_ = true; // a torn tail may be on disk; recovery truncates it
    return st;
}

Status Journal::appendAdmit(std::uint64_t seq, const JobRequest& req) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint8_t> payload = admitPayload(seq, req);
    const Status st = appendLocked(kAdmit, payload);
    if (st.ok() && !degraded_) {
        Outstanding& o = live_[seq];
        o.admitPayload = std::move(payload);
        o.started = false;
    }
    return st;
}

Status Journal::appendStart(std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    const Status st = appendLocked(kStart, seqPayload(seq));
    if (st.ok() && !degraded_) {
        const auto it = live_.find(seq);
        if (it != live_.end()) it->second.started = true;
    }
    return st;
}

Status Journal::appendDone(std::uint64_t seq, const JobResult& result) {
    std::lock_guard<std::mutex> lock(mu_);
    return closeLocked(seq, kDone, donePayload(seq, result));
}

Status Journal::appendDrop(std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    return closeLocked(seq, kDrop, seqPayload(seq));
}

Status Journal::closeLocked(std::uint64_t seq, std::uint32_t tag,
                            const std::vector<std::uint8_t>& payload) {
    const Status st = appendLocked(tag, payload);
    if (!st.ok() || degraded_) return st;
    live_.erase(seq);
    if (++donesSinceCompact_ >= kCompactEveryDones) {
        donesSinceCompact_ = 0;
        (void)compactLocked(); // failure keeps the (valid) uncompacted file
    }
    return st;
}

Status Journal::compact() {
    std::lock_guard<std::mutex> lock(mu_);
    if (degraded_) return Status::okStatus();
    return compactLocked();
}

Status Journal::compactLocked() {
    robust::WireWriter records;
    for (const auto& [seq, o] : live_) {
        robust::appendRecord(records, kAdmit, o.admitPayload);
        if (o.started) robust::appendRecord(records, kStart, seqPayload(seq));
    }
    // An atomic-rename failure leaves the previous (longer but valid)
    // journal in place: compaction is an optimisation, never a risk.
    const Status st = robust::atomicWriteFile(path_, records.bytes, "journal");
    if (!st.ok()) return st;
    ++compactions_;
    reopenLocked(); // the old fd points at the unlinked pre-compaction inode
    return Status::okStatus();
}

} // namespace mlpart::serve

#endif // !_WIN32

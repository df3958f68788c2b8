// Byte codec, EINTR-safe fd plumbing, and the one CRC record codec
// (DESIGN.md §10 "Record codec"). The worker pipe messages, the serve
// journal, checkpoints and the persisted result cache are all sequences
// of records, little-endian:
//
//   tag u32 | len u64 | crc32(tag, len, payload) u32 | payload (len bytes)
//
// appendRecord writes one, recordSize sizes one from its header, and
// scanRecords returns the undamaged records of a buffer plus where and
// why the first damaged one starts. Each format keeps its own damage
// policy on top of the scan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "robust/status.h"

namespace mlpart::robust {

// --------------------------------------------------------------- hashing

/// Standard CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected).
/// `seed` chains incremental computations: pass a previous result to
/// continue it over another buffer.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// Combines two 64-bit hashes (splitmix-style avalanche); used to build
/// fingerprints from instance/config/seed components.
[[nodiscard]] std::uint64_t hashCombine(std::uint64_t h, std::uint64_t v);

// ------------------------------------------------------------- byte codec

/// Little-endian append-only byte writer (payload construction).
struct WireWriter {
    std::vector<std::uint8_t> bytes;

    void u8(std::uint8_t v) { bytes.push_back(v); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    /// u32 length, then the bytes.
    void str(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes.insert(bytes.end(), s.begin(), s.end());
    }
    /// u64 length, then the bytes.
    void blob(const std::vector<std::uint8_t>& b) {
        u64(b.size());
        bytes.insert(bytes.end(), b.begin(), b.end());
    }
};

/// Bounds-checked reader over a validated payload. Throws
/// Error(kParseError) on truncation — a record that passed its CRC can
/// still carry a hostile or version-skewed payload.
struct WireReader {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
    std::size_t pos = 0;

    [[nodiscard]] std::size_t remaining() const { return size - pos; }
    void need(std::uint64_t n) const;
    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str();
    std::vector<std::uint8_t> blob();
};

// ----------------------------------------------------------------- records

/// Record header size in bytes (tag + length + crc).
inline constexpr std::size_t kRecordHeaderBytes = 16;

/// Appends one record carrying `payload` under `tag` to `out`.
void appendRecord(WireWriter& out, std::uint32_t tag, const std::vector<std::uint8_t>& payload);

/// The complete size (header + payload) of the record whose
/// kRecordHeaderBytes header is at `header`: how many bytes a pipe reader
/// must collect before scanning. Throws Error(kParseError) when the
/// payload is over `maxPayloadBytes`.
[[nodiscard]] std::size_t recordSize(const std::uint8_t* header, std::uint64_t maxPayloadBytes);

/// One undamaged record inside a scanned buffer.
struct Record {
    std::uint32_t tag = 0;
    std::size_t offset = 0; ///< where its header starts in the scanned bytes
    const std::uint8_t* payload = nullptr;
    std::size_t size = 0;   ///< payload bytes

    [[nodiscard]] WireReader reader() const { return {payload, size, 0}; }
};

/// Why a scan stopped before the end of its input.
enum class RecordDamage : std::uint8_t {
    kNone,        ///< every byte belongs to an undamaged record
    kTruncated,   ///< the header or the payload runs past the end (torn write)
    kOverCap,     ///< the declared length is over the caller's cap
    kCrcMismatch, ///< bit rot, a forged field, or a torn overwrite
};

struct RecordScan {
    std::vector<Record> records; ///< the undamaged records in front of `end`
    std::size_t end = 0;         ///< offset of the first damaged record (input size when clean)
    RecordDamage damage = RecordDamage::kNone;

    /// "CRC mismatch (bit rot or torn write) at byte 48"; empty if clean.
    [[nodiscard]] std::string damageText() const;
};

/// Walks `data` record by record up to the first damaged one. Never
/// throws and never allocates for a declared length.
[[nodiscard]] RecordScan scanRecords(const std::uint8_t* data, std::size_t size,
                                     std::uint64_t maxPayloadBytes);

// ----------------------------------------------------- EINTR-safe syscalls

/// write(2) until every byte is out, retrying EINTR-interrupted and short
/// writes. Returns a non-ok Status on any other error (EPIPE included —
/// callers talking to a dying peer must not throw).
[[nodiscard]] Status writeFull(int fd, const void* data, std::size_t size);

/// read(2) until `size` bytes arrived, EOF, or a real error. Returns the
/// byte count delivered (< size means EOF); retries EINTR. Throws
/// Error(kInternal) on a real read error.
[[nodiscard]] std::size_t readFull(int fd, void* data, std::size_t size);

/// Reads the whole file through open(2)/read(2) with EINTR retry — the
/// stream-free path the checkpoint loader uses so a signal-heavy host
/// (the service) cannot produce spurious short reads. Throws
/// Error(kParseError) when the file cannot be opened or read.
[[nodiscard]] std::vector<std::uint8_t> readFileBytes(const std::string& path);

} // namespace mlpart::robust

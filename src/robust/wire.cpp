#include "robust/wire.h"

#include <array>
#include <cerrno>
#include <cstring>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#else
#include <fstream>
#include <iterator>
#endif

namespace mlpart::robust {

namespace {

// The CRC covers the tag and the length (the header bytes in front of
// the CRC field) and then the payload.
constexpr std::size_t kCrcCoveredHeaderBytes = 12;

} // namespace

// --------------------------------------------------------------- hashing

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = seed ^ 0xFFFFFFFFU;
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) c = table[(c ^ p[i]) & 0xFFU] ^ (c >> 8);
    return c ^ 0xFFFFFFFFU;
}

std::uint64_t hashCombine(std::uint64_t h, std::uint64_t v) {
    std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// ------------------------------------------------------------- byte codec

void WireWriter::f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void WireReader::need(std::uint64_t n) const {
    if (n > remaining())
        throw Error(StatusCode::kParseError, "wire: payload truncated (wanted " +
                                                 std::to_string(n) + " more bytes, " +
                                                 std::to_string(remaining()) + " left)");
}

std::uint8_t WireReader::u8() {
    need(1);
    return data[pos++];
}

std::uint32_t WireReader::u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    return v;
}

std::uint64_t WireReader::u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
    return v;
}

double WireReader::f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string WireReader::str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
}

std::vector<std::uint8_t> WireReader::blob() {
    const std::uint64_t n = u64();
    need(n);
    std::vector<std::uint8_t> b(data + pos, data + pos + n);
    pos += static_cast<std::size_t>(n);
    return b;
}

// ----------------------------------------------------- EINTR-safe syscalls

#if !defined(_WIN32)

Status writeFull(int fd, const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(fd, p + off, size - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            return Status::error(StatusCode::kInternal,
                                 std::string("wire: write failed: ") + std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    return Status::okStatus();
}

std::size_t readFull(int fd, void* data, std::size_t size) {
    auto* p = static_cast<std::uint8_t*>(data);
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::read(fd, p + off, size - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw Error(StatusCode::kInternal,
                        std::string("wire: read failed: ") + std::strerror(errno));
        }
        if (n == 0) break; // EOF
        off += static_cast<std::size_t>(n);
    }
    return off;
}

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
    int fd;
    do {
        fd = ::open(path.c_str(), O_RDONLY);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        throw Error(StatusCode::kParseError,
                    "wire: cannot open " + path + ": " + std::strerror(errno));
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[1 << 16];
    while (true) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR) continue;
            const int err = errno;
            ::close(fd);
            throw Error(StatusCode::kParseError,
                        "wire: read from " + path + " failed: " + std::strerror(err));
        }
        if (n == 0) break;
        bytes.insert(bytes.end(), buf, buf + n);
    }
    ::close(fd);
    return bytes;
}

#else // _WIN32: stream fallback (the serve layer itself is POSIX-only)

Status writeFull(int, const void*, std::size_t) {
    return Status::error(StatusCode::kInternal, "wire: fd IO unsupported on this platform");
}

std::size_t readFull(int, void*, std::size_t) {
    throw Error(StatusCode::kInternal, "wire: fd IO unsupported on this platform");
}

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error(StatusCode::kParseError, "wire: cannot open " + path);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

#endif

// ----------------------------------------------------------------- records

void appendRecord(WireWriter& out, std::uint32_t tag, const std::vector<std::uint8_t>& payload) {
    const std::size_t start = out.bytes.size();
    out.bytes.reserve(start + kRecordHeaderBytes + payload.size());
    out.u32(tag);
    out.u64(payload.size());
    const std::uint32_t headerCrc = crc32(out.bytes.data() + start, kCrcCoveredHeaderBytes);
    out.u32(crc32(payload.data(), payload.size(), headerCrc));
    out.bytes.insert(out.bytes.end(), payload.begin(), payload.end());
}

std::size_t recordSize(const std::uint8_t* header, std::uint64_t maxPayloadBytes) {
    WireReader in{header, kRecordHeaderBytes, 4}; // the length follows the tag
    const std::uint64_t len = in.u64();
    if (len > maxPayloadBytes)
        throw Error(StatusCode::kParseError, "wire: record length " + std::to_string(len) +
                                                 " over the " + std::to_string(maxPayloadBytes) +
                                                 "-byte cap");
    return kRecordHeaderBytes + static_cast<std::size_t>(len);
}

std::string RecordScan::damageText() const {
    const char* what = "";
    switch (damage) {
        case RecordDamage::kNone: return {};
        case RecordDamage::kTruncated: what = "truncated (torn write)"; break;
        case RecordDamage::kOverCap: what = "length over the cap (forged or damaged)"; break;
        case RecordDamage::kCrcMismatch: what = "CRC mismatch (bit rot or torn write)"; break;
    }
    return std::string(what) + " at byte " + std::to_string(end);
}

RecordScan scanRecords(const std::uint8_t* data, std::size_t size,
                       std::uint64_t maxPayloadBytes) {
    RecordScan scan;
    std::size_t pos = 0;
    while (pos < size) {
        scan.end = pos;
        if (size - pos < kRecordHeaderBytes) {
            scan.damage = RecordDamage::kTruncated;
            return scan;
        }
        WireReader in{data + pos, kRecordHeaderBytes};
        Record rec;
        rec.tag = in.u32();
        const std::uint64_t len = in.u64();
        const std::uint32_t crc = in.u32();
        if (len > maxPayloadBytes) {
            scan.damage = RecordDamage::kOverCap;
            return scan;
        }
        if (len > size - pos - kRecordHeaderBytes) {
            scan.damage = RecordDamage::kTruncated;
            return scan;
        }
        rec.offset = pos;
        rec.payload = data + pos + kRecordHeaderBytes;
        rec.size = static_cast<std::size_t>(len);
        if (crc != crc32(rec.payload, rec.size, crc32(data + pos, kCrcCoveredHeaderBytes))) {
            scan.damage = RecordDamage::kCrcMismatch;
            return scan;
        }
        scan.records.push_back(rec);
        pos += kRecordHeaderBytes + rec.size;
    }
    scan.end = size;
    return scan;
}

} // namespace mlpart::robust

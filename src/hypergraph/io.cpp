#include "hypergraph/io.h"

#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "hypergraph/builder.h"
#include "robust/memory_governor.h"
#include "robust/status.h"

namespace mlpart {

namespace {

[[noreturn]] void parseError(const std::string& message) {
    throw robust::Error(robust::StatusCode::kParseError, message);
}

// Absolute ceiling on any declared count: ModuleId/NetId are 32-bit and
// pin bookkeeping multiplies counts, so ids near INT32_MAX would overflow.
constexpr std::int64_t kMaxDeclaredCount = std::int64_t{1} << 30;

// hMETIS stores weights as C ints. Holding them there also keeps every sum
// the library forms from them (merged parallel nets, module gains, total
// area over at most 2^30 modules or nets) inside int64.
constexpr std::int64_t kMaxWeight = std::numeric_limits<std::int32_t>::max();

// Token separators within a line: isspace() minus the line break.
constexpr bool isBlank(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

const char* skipBlanks(const char* p, const char* end) {
    while (p != end && isBlank(*p)) ++p;
    return p;
}

// Parses the integer token starting at `p` (one optional sign). Values
// beyond int64 saturate, so the caller's range check rejects them. Returns
// the end of the token, or nullptr when the token is not a whole integer.
const char* parseInt(const char* p, const char* end, std::int64_t& out) {
    if (p != end && *p == '+') {
        ++p;
        if (p == end || *p == '-') return nullptr;
    }
    const auto [q, ec] = std::from_chars(p, end, out);
    if (ec == std::errc::invalid_argument) return nullptr;
    if (ec == std::errc::result_out_of_range)
        out = *p == '-' ? std::numeric_limits<std::int64_t>::min()
                        : std::numeric_limits<std::int64_t>::max();
    if (q != end && !isBlank(*q)) return nullptr;
    return q;
}

// Cursor over the data lines of .hgr text: blank lines and lines whose
// first non-blank character is '%' are skipped.
class HgrLines {
public:
    explicit HgrLines(std::string_view text) : text_(text) {}

    // Sets [begin, end) to the next data line, starting at its first
    // non-blank character; returns false at the end of the text.
    bool next(const char*& begin, const char*& end) {
        while (pos_ < text_.size()) {
            const char* line = text_.data() + pos_;
            const std::size_t left = text_.size() - pos_;
            const auto* nl = static_cast<const char*>(std::memchr(line, '\n', left));
            const std::size_t len = nl ? static_cast<std::size_t>(nl - line) : left;
            pos_ += len + (nl ? 1 : 0);
            ++lineNo_;
            begin = skipBlanks(line, line + len);
            end = line + len;
            if (begin != end && *begin != '%') return true;
        }
        return false;
    }

    [[noreturn]] void error(const char* message) const {
        parseError(std::string("readHgr: ") + message + " (line " + std::to_string(lineNo_) + ")");
    }

private:
    std::string_view text_;
    std::size_t pos_ = 0;
    std::int64_t lineNo_ = 0;
};

HgrHeader parseHeader(HgrLines& lines, std::int64_t sizeHint) {
    const char* p = nullptr;
    const char* end = nullptr;
    if (!lines.next(p, end)) parseError("readHgr: empty input");
    HgrHeader h;
    p = parseInt(p, end, h.numNets);
    if (p) p = parseInt(skipBlanks(p, end), end, h.numModules);
    if (!p) lines.error("malformed header");
    p = skipBlanks(p, end);
    std::int64_t fmt = 0; // optional
    if (p != end) {
        p = parseInt(p, end, fmt);
        if (!p) lines.error("malformed fmt code");
        if (skipBlanks(p, end) != end) lines.error("malformed header");
    }
    if (h.numNets < 0 || h.numModules < 0) parseError("readHgr: negative counts");
    if (h.numNets > kMaxDeclaredCount || h.numModules > kMaxDeclaredCount)
        parseError("readHgr: header count exceeds the 2^30 limit");
    if (sizeHint >= 0) {
        // Every net needs its own line (>= 2 bytes); every module weight
        // line likewise. Reject headers no file of this size could back
        // *before* the builder allocates per-module storage.
        if (h.numNets > sizeHint / 2 + 16)
            parseError("readHgr: header declares " + std::to_string(h.numNets) +
                       " nets, implausible for a " + std::to_string(sizeHint) + "-byte file");
        if (h.numModules > 8 * sizeHint + 1024)
            parseError("readHgr: header declares " + std::to_string(h.numModules) +
                       " modules, implausible for a " + std::to_string(sizeHint) + "-byte file");
    }
    if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11) parseError("readHgr: unsupported fmt code");
    h.fmt = static_cast<int>(fmt);
    return h;
}

// Reads the next non-comment, non-empty line; returns false on EOF.
bool nextLine(std::istream& in, std::string& line) {
    while (std::getline(in, line)) {
        std::size_t i = line.find_first_not_of(" \t\r");
        if (i == std::string::npos) continue;
        if (line[i] == '%') continue;
        return true;
    }
    return false;
}

} // namespace

HgrHeader readHgrHeader(std::string_view text, std::int64_t sizeHint) {
    HgrLines lines(text);
    return parseHeader(lines, sizeHint);
}

Hypergraph readHgrText(std::string_view text, std::int64_t sizeHint) {
    HgrLines lines(text);
    const HgrHeader header = parseHeader(lines, sizeHint);
    const std::int64_t numNets = header.numNets;
    const std::int64_t numModules = header.numModules;
    const bool netWeights = (header.fmt == 1 || header.fmt == 11);
    const bool moduleWeights = (header.fmt == 10 || header.fmt == 11);

    // Builder allocation path is memory-governed: an instance whose
    // per-module/per-net storage alone exceeds a --mem-limit budget fails
    // here as an allocation failure (exit 7), not later as an OOM kill.
    robust::MemoryGovernor::instance().guardTransient(
        static_cast<std::uint64_t>(numModules) * 24 + static_cast<std::uint64_t>(numNets) * 16);

    HypergraphBuilder b(static_cast<ModuleId>(numModules));
    std::vector<ModuleId> pins;
    const char* p = nullptr;
    const char* end = nullptr;
    for (std::int64_t e = 0; e < numNets; ++e) {
        if (!lines.next(p, end)) parseError("readHgr: truncated net list");
        std::int64_t w = 1;
        if (netWeights) {
            p = parseInt(p, end, w);
            if (!p) lines.error("malformed net weight");
            if (w < 1) lines.error("net weight must be >= 1");
            if (w > kMaxWeight) lines.error("net weight exceeds the 2^31-1 limit");
        }
        pins.clear();
        for (p = skipBlanks(p, end); p != end; p = skipBlanks(p, end)) {
            std::int64_t id = 0;
            p = parseInt(p, end, id);
            if (!p) lines.error("malformed pin id");
            if (id < 1 || id > numModules) lines.error("pin id out of range");
            pins.push_back(static_cast<ModuleId>(id - 1));
        }
        if (pins.empty()) lines.error("net with no pins");
        b.addNet(pins, w);
    }
    if (moduleWeights) {
        for (std::int64_t v = 0; v < numModules; ++v) {
            if (!lines.next(p, end)) parseError("readHgr: truncated module weights");
            std::int64_t a = 0;
            p = parseInt(p, end, a);
            if (!p || skipBlanks(p, end) != end) lines.error("malformed module weight");
            if (a < 0) lines.error("negative module weight");
            if (a > kMaxWeight) lines.error("module weight exceeds the 2^31-1 limit");
            b.setArea(static_cast<ModuleId>(v), a);
        }
    }
    return std::move(b).build();
}

Hypergraph readHgr(std::istream& in, std::int64_t sizeHint) {
    std::ostringstream text;
    text << in.rdbuf();
    return readHgrText(text.view(), sizeHint);
}

Hypergraph readHgrFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) parseError("readHgrFile: cannot open " + path);
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) return readHgr(in); // no size to read by (or to plausibility-check against)
    robust::MemoryGovernor::instance().guardTransient(size);
    std::string text(size, '\0');
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<std::size_t>(in.gcount()));
    return readHgrText(text, static_cast<std::int64_t>(size));
}

void writeHgr(const Hypergraph& h, std::ostream& out) {
    bool anyNetWeight = false;
    for (NetId e = 0; e < h.numNets(); ++e)
        if (h.netWeight(e) != 1) { anyNetWeight = true; break; }
    bool anyModuleWeight = false;
    for (ModuleId v = 0; v < h.numModules(); ++v)
        if (h.area(v) != 1) { anyModuleWeight = true; break; }

    const int fmt = (anyNetWeight ? 1 : 0) + (anyModuleWeight ? 10 : 0);
    out << h.numNets() << ' ' << h.numModules();
    if (fmt != 0) out << ' ' << fmt;
    out << '\n';
    for (NetId e = 0; e < h.numNets(); ++e) {
        if (anyNetWeight) out << h.netWeight(e) << ' ';
        bool first = true;
        for (ModuleId v : h.pins(e)) {
            if (!first) out << ' ';
            out << (v + 1);
            first = false;
        }
        out << '\n';
    }
    if (anyModuleWeight)
        for (ModuleId v = 0; v < h.numModules(); ++v) out << h.area(v) << '\n';
}

void writeHgrFile(const Hypergraph& h, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw robust::Error(robust::StatusCode::kUsage, "writeHgrFile: cannot open " + path);
    writeHgr(h, out);
}

void writePartition(const Partition& part, std::ostream& out) {
    for (ModuleId v = 0; v < part.numModules(); ++v) out << part.part(v) << '\n';
}

void writePartitionFile(const Partition& part, const std::string& path) {
    std::ofstream out(path);
    if (!out)
        throw robust::Error(robust::StatusCode::kUsage, "writePartitionFile: cannot open " + path);
    writePartition(part, out);
}

Partition readPartition(const Hypergraph& h, std::istream& in, PartId k) {
    std::vector<PartId> assign;
    assign.reserve(static_cast<std::size_t>(h.numModules()));
    std::string line;
    PartId maxSeen = -1;
    while (static_cast<ModuleId>(assign.size()) < h.numModules() && nextLine(in, line)) {
        std::istringstream ls(line);
        PartId p = 0;
        if (!(ls >> p) || p < 0) parseError("readPartition: malformed block id");
        maxSeen = std::max(maxSeen, p);
        assign.push_back(p);
    }
    if (static_cast<ModuleId>(assign.size()) != h.numModules())
        parseError("readPartition: truncated partition file");
    const PartId effectiveK = k > 0 ? k : maxSeen + 1;
    if (maxSeen >= effectiveK) parseError("readPartition: block id exceeds k");
    return {h, effectiveK, std::move(assign)};
}

Partition readPartitionFile(const Hypergraph& h, const std::string& path, PartId k) {
    std::ifstream in(path);
    if (!in) parseError("readPartitionFile: cannot open " + path);
    return readPartition(h, in, k);
}

std::vector<std::uint8_t> encodePartitionBinary(const Partition& part) {
    std::vector<std::uint8_t> bytes;
    bytes.reserve(8 + 4 * static_cast<std::size_t>(part.numModules()));
    const auto put32 = [&bytes](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put32(static_cast<std::uint32_t>(part.numParts()));
    put32(static_cast<std::uint32_t>(part.numModules()));
    for (const PartId p : part.assignment()) put32(static_cast<std::uint32_t>(p));
    return bytes;
}

Partition decodePartitionBinary(const Hypergraph& h, const std::uint8_t* data, std::size_t size) {
    std::size_t pos = 0;
    const auto get32 = [&]() -> std::uint32_t {
        if (size - pos < 4) parseError("decodePartitionBinary: truncated blob");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
        return v;
    };
    const auto k = static_cast<std::int64_t>(get32());
    const auto n = static_cast<std::int64_t>(get32());
    if (k < 1 || k > (std::int64_t{1} << 30))
        parseError("decodePartitionBinary: nonsensical block count " + std::to_string(k));
    if (n != h.numModules())
        parseError("decodePartitionBinary: blob is for " + std::to_string(n) +
                   " modules, hypergraph has " + std::to_string(h.numModules()));
    if (size - pos != 4 * static_cast<std::size_t>(n))
        parseError("decodePartitionBinary: blob length mismatch");
    std::vector<PartId> assign(static_cast<std::size_t>(n));
    for (std::int64_t v = 0; v < n; ++v) {
        const std::uint32_t p = get32();
        if (p >= static_cast<std::uint32_t>(k))
            parseError("decodePartitionBinary: block id out of range");
        assign[static_cast<std::size_t>(v)] = static_cast<PartId>(p);
    }
    return {h, static_cast<PartId>(k), std::move(assign)};
}

} // namespace mlpart

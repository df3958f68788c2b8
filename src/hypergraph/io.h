// hMETIS-format (.hgr) hypergraph I/O.
//
// Format (hMETIS manual):
//   line 1: <numNets> <numModules> [fmt]
//     fmt = 1  -> each net line starts with its weight
//     fmt = 10 -> a trailing block of numModules lines gives module weights
//     fmt = 11 -> both
//   then one line per net listing 1-based module ids.
// Lines starting with '%' are comments.
//
// The ACM/SIGDA circuits the paper evaluates are distributed in this format;
// with them on disk, readHgr() lets every bench run on the real instances
// instead of the synthetic stand-ins.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "hypergraph/partition.h"

namespace mlpart {

/// Declared counts and format code from the header line of an .hgr file.
struct HgrHeader {
    std::int64_t numNets = 0;
    std::int64_t numModules = 0;
    int fmt = 0; ///< 0, 1, 10 or 11
};

/// Parses the header of .hgr text (its first line that is neither blank
/// nor a '%' comment), applying every check the full reader applies to it:
/// the `<numNets> <numModules> [fmt]` grammar, non-negative counts, the
/// 2^30 cap, the `sizeHint` plausibility caps and a supported fmt code.
/// Throws robust::Error (kParseError) otherwise. Looks no further than the
/// header line, so a prefix of the input is enough.
[[nodiscard]] HgrHeader readHgrHeader(std::string_view text, std::int64_t sizeHint = -1);

/// Parses .hgr text in one pass over the buffer. Throws robust::Error with
/// StatusCode::kParseError (a std::runtime_error) on malformed input: every
/// token must be a whole integer in range, so trailing garbage, overflowing
/// ids and stray fields are rejected, never skipped.
///
/// `sizeHint` is the input size in bytes when known (readHgrFile passes the
/// file size): header counts implying more nets/modules than a file of that
/// size could possibly describe are rejected *before* any allocation, so a
/// hostile header cannot trigger a multi-gigabyte reserve. Counts are
/// always capped at 2^30 regardless of the hint (ModuleId/NetId are
/// 32-bit), and net and module weights at 2^31-1. Pass -1 (default) when
/// the size is unknown.
[[nodiscard]] Hypergraph readHgrText(std::string_view text, std::int64_t sizeHint = -1);
/// Reads the whole stream, then parses it with readHgrText.
[[nodiscard]] Hypergraph readHgr(std::istream& in, std::int64_t sizeHint = -1);
/// Reads an .hgr file with one read and parses it with readHgrText, the
/// file size serving as the size hint. Throws robust::Error if unreadable.
[[nodiscard]] Hypergraph readHgrFile(const std::string& path);

/// Writes `h` in .hgr format. Net weights are emitted (fmt=1) when any net
/// weight differs from 1; module weights (fmt=10) when any area differs
/// from 1.
void writeHgr(const Hypergraph& h, std::ostream& out);
void writeHgrFile(const Hypergraph& h, const std::string& path);

/// Writes a partition in the hMETIS solution format: one block id per
/// line, in module order.
void writePartition(const Partition& part, std::ostream& out);
void writePartitionFile(const Partition& part, const std::string& path);

/// Reads an hMETIS-format partition for `h` (one block id per module
/// line); k is inferred as max id + 1 unless `k` > 0 forces it. Throws
/// robust::Error (kParseError) on malformed or truncated input.
[[nodiscard]] Partition readPartition(const Hypergraph& h, std::istream& in, PartId k = 0);
[[nodiscard]] Partition readPartitionFile(const Hypergraph& h, const std::string& path, PartId k = 0);

/// Compact little-endian binary encoding of a partition (k, module count,
/// one block id per module). Used as the opaque best-partition blob of
/// the checkpoint layer (robust/checkpoint.h), which CRC-frames it.
[[nodiscard]] std::vector<std::uint8_t> encodePartitionBinary(const Partition& part);

/// Decodes encodePartitionBinary output against `h`, validating the
/// module count and every block id. Throws robust::Error (kParseError) on
/// any mismatch — a checkpoint claiming a partition for a different
/// instance must be rejected, never trusted.
[[nodiscard]] Partition decodePartitionBinary(const Hypergraph& h, const std::uint8_t* data,
                                              std::size_t size);

} // namespace mlpart

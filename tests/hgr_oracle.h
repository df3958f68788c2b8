// Test-only oracles for the .hgr ingest path: the line-at-a-time
// istringstream reader and the unordered_map parallel-net merge that the
// one-buffer readHgrText and the flat-table HypergraphBuilder::build()
// replaced. Differential tests pin the production path to these, net for
// net and byte for byte (check::verifyIdenticalHypergraphs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "hypergraph/assemble.h"
#include "hypergraph/hypergraph.h"
#include "robust/status.h"

namespace mlpart::testing {

/// A netlist as added to a builder: raw pin lists in input order.
struct RawNetlist {
    ModuleId modules = 0;
    std::vector<std::vector<ModuleId>> nets;
    std::vector<Weight> weights;
    std::vector<Area> areas;
};

/// The historical HypergraphBuilder::build(): sort and dedup each net into
/// fresh arrays, drop size<2 nets, and merge parallel nets through a
/// hash -> candidate-list map into the first occurrence.
inline Hypergraph referenceBuild(const RawNetlist& raw, bool mergeParallel) {
    const auto hashPins = [](const std::vector<ModuleId>& pins) {
        std::uint64_t h = 1469598103934665603ULL;
        for (ModuleId v : pins) {
            h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
            h *= 1099511628211ULL;
        }
        return h;
    };
    std::vector<std::int64_t> keptOffsets{0};
    std::vector<ModuleId> keptPins;
    std::vector<Weight> keptWeights;
    std::unordered_map<std::uint64_t, std::vector<NetId>> byHash;
    std::vector<ModuleId> scratch;
    for (std::size_t e = 0; e < raw.nets.size(); ++e) {
        scratch = raw.nets[e];
        std::sort(scratch.begin(), scratch.end());
        scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
        if (scratch.size() < 2) continue;
        if (mergeParallel) {
            auto& candidates = byHash[hashPins(scratch)];
            bool merged = false;
            for (NetId other : candidates) {
                const auto* op = keptPins.data() + keptOffsets[other];
                const auto osz = keptOffsets[other + 1] - keptOffsets[other];
                if (static_cast<std::size_t>(osz) == scratch.size() &&
                    std::equal(scratch.begin(), scratch.end(), op)) {
                    keptWeights[static_cast<std::size_t>(other)] += raw.weights[e];
                    merged = true;
                    break;
                }
            }
            if (merged) continue;
            candidates.push_back(static_cast<NetId>(keptWeights.size()));
        }
        keptPins.insert(keptPins.end(), scratch.begin(), scratch.end());
        keptOffsets.push_back(static_cast<std::int64_t>(keptPins.size()));
        keptWeights.push_back(raw.weights[e]);
    }
    return HypergraphAssembler::assemble(std::move(keptOffsets), std::move(keptPins),
                                         std::move(keptWeights), raw.areas, {});
}

/// The historical readHgr(): std::getline plus one std::istringstream per
/// line, then referenceBuild with merging on. It silently skips trailing
/// garbage on a line, so compare against it only on inputs it accepts.
inline Hypergraph referenceReadHgr(std::istream& in, std::int64_t sizeHint = -1) {
    const auto fail = [](const char* message) {
        throw robust::Error(robust::StatusCode::kParseError, message);
    };
    const auto nextLine = [&in](std::string& line) {
        while (std::getline(in, line)) {
            const std::size_t i = line.find_first_not_of(" \t\r");
            if (i == std::string::npos || line[i] == '%') continue;
            return true;
        }
        return false;
    };
    std::string line;
    if (!nextLine(line)) fail("empty input");
    std::istringstream header(line);
    std::int64_t numNets = 0, numModules = 0;
    int fmt = 0;
    if (!(header >> numNets >> numModules)) fail("malformed header");
    header >> fmt;
    if (numNets < 0 || numModules < 0) fail("negative counts");
    if (numNets > (std::int64_t{1} << 30) || numModules > (std::int64_t{1} << 30))
        fail("header count exceeds the 2^30 limit");
    if (sizeHint >= 0 && (numNets > sizeHint / 2 + 16 || numModules > 8 * sizeHint + 1024))
        fail("implausible header");
    if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11) fail("unsupported fmt code");

    RawNetlist raw;
    raw.modules = static_cast<ModuleId>(numModules);
    raw.areas.assign(static_cast<std::size_t>(numModules), 1);
    for (std::int64_t e = 0; e < numNets; ++e) {
        if (!nextLine(line)) fail("truncated net list");
        std::istringstream ls(line);
        Weight w = 1;
        if ((fmt == 1 || fmt == 11) && !(ls >> w)) fail("missing net weight");
        if (w < 1) fail("net weight must be >= 1");
        std::vector<ModuleId> pins;
        std::int64_t id = 0;
        while (ls >> id) {
            if (id < 1 || id > numModules) fail("pin id out of range");
            pins.push_back(static_cast<ModuleId>(id - 1));
        }
        if (pins.empty()) fail("net with no pins");
        raw.nets.push_back(std::move(pins));
        raw.weights.push_back(w);
    }
    if (fmt == 10 || fmt == 11) {
        for (std::int64_t v = 0; v < numModules; ++v) {
            if (!nextLine(line)) fail("truncated module weights");
            std::istringstream ls(line);
            Area a = 0;
            if (!(ls >> a)) fail("malformed module weight");
            if (a < 0) fail("negative area");
            raw.areas[static_cast<std::size_t>(v)] = a;
        }
    }
    return referenceBuild(raw, true);
}

inline Hypergraph referenceReadHgr(const std::string& text, std::int64_t sizeHint = -1) {
    std::istringstream in(text);
    return referenceReadHgr(in, sizeHint);
}

} // namespace mlpart::testing

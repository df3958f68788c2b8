#include "hypergraph/builder.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "hypergraph/assemble.h"

namespace mlpart {

HypergraphBuilder::HypergraphBuilder(ModuleId numModules, Area defaultArea)
    : numModules_(numModules) {
    if (numModules < 0) throw std::invalid_argument("HypergraphBuilder: negative module count");
    if (defaultArea < 0) throw std::invalid_argument("HypergraphBuilder: negative default area");
    areas_.assign(static_cast<std::size_t>(numModules), defaultArea);
}

NetId HypergraphBuilder::addNet(std::span<const ModuleId> pins, Weight w) {
    if (w < 1) throw std::invalid_argument("HypergraphBuilder::addNet: net weight must be >= 1");
    for (ModuleId v : pins) {
        if (v < 0 || v >= numModules_)
            throw std::invalid_argument("HypergraphBuilder::addNet: pin module id out of range");
    }
    netPins_.insert(netPins_.end(), pins.begin(), pins.end());
    netOffsets_.push_back(static_cast<std::int64_t>(netPins_.size()));
    netWeights_.push_back(w);
    return static_cast<NetId>(netWeights_.size() - 1);
}

NetId HypergraphBuilder::addNet(std::initializer_list<ModuleId> pins, Weight w) {
    return addNet(std::span<const ModuleId>(pins.begin(), pins.size()), w);
}

void HypergraphBuilder::setArea(ModuleId v, Area a) {
    if (v < 0 || v >= numModules_) throw std::invalid_argument("HypergraphBuilder::setArea: module id out of range");
    if (a < 0) throw std::invalid_argument("HypergraphBuilder::setArea: negative area");
    areas_[static_cast<std::size_t>(v)] = a;
}

void HypergraphBuilder::setModuleName(ModuleId v, std::string name) {
    if (v < 0 || v >= numModules_) throw std::invalid_argument("HypergraphBuilder::setModuleName: module id out of range");
    if (names_.empty()) names_.resize(static_cast<std::size_t>(numModules_));
    names_[static_cast<std::size_t>(v)] = std::move(name);
}

namespace {

// FNV-1a over the sorted pin list, finished with a murmur3 mix so the top
// bits used as the table index depend on every pin.
std::uint64_t hashPins(std::span<const ModuleId> pins) {
    std::uint64_t h = 1469598103934665603ULL;
    for (ModuleId v : pins) {
        h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
        h *= 1099511628211ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

} // namespace

Hypergraph HypergraphBuilder::build() && {
    const NetId rawNets = numNetsAdded();

    // Parallel-net merge table: open addressing with linear probing over
    // kept net ids (-1 = empty slot). At most one net per raw net with two
    // or more pins is kept, and the capacity is a power of two >= 1.5x
    // that bound, so the load stays <= 2/3. At 4 bytes a slot that is
    // under 12 bytes per candidate net, below the kept pin array once nets
    // average 3 pins (golem3, 2.3 pins a net: 1.0 MB against 1.3 MB).
    std::vector<NetId> table;
    int shift = 64;
    if (mergeParallel_) {
        std::size_t candidates = 0;
        for (NetId e = 0; e < rawNets; ++e)
            candidates += netOffsets_[e + 1] - netOffsets_[e] >= 2 ? 1 : 0;
        if (candidates > 0) {
            const std::size_t capacity = std::bit_ceil(candidates + candidates / 2 + 1);
            table.assign(capacity, -1);
            shift = 64 - std::countr_zero(capacity);
        }
    }
    const std::size_t mask = table.size() - 1;

    // Normalize each net in place: sort pins, strip duplicates, drop
    // size<2 nets, and compact the survivors to the front of the raw
    // arrays (a kept net never lands past the raw net it came from).
    NetId kept = 0;
    std::int64_t write = 0;
    std::int64_t rawBegin = 0;
    for (NetId e = 0; e < rawNets; ++e) {
        const std::int64_t rawEnd = netOffsets_[static_cast<std::size_t>(e) + 1];
        const auto first = netPins_.begin() + rawBegin;
        if (!std::is_sorted(first, netPins_.begin() + rawEnd))
            std::sort(first, netPins_.begin() + rawEnd);
        const auto last = std::unique(first, netPins_.begin() + rawEnd);
        rawBegin = rawEnd;
        const std::int64_t size = last - first;
        if (size < 2) continue; // degenerate net: connects < 2 modules
        const Weight w = netWeights_[static_cast<std::size_t>(e)];

        if (!table.empty()) {
            const std::span<const ModuleId> net(first, last);
            std::size_t slot = static_cast<std::size_t>(hashPins(net) >> shift);
            bool merged = false;
            for (; table[slot] >= 0; slot = (slot + 1) & mask) {
                const NetId other = table[slot];
                const std::int64_t ob = netOffsets_[static_cast<std::size_t>(other)];
                if (netOffsets_[static_cast<std::size_t>(other) + 1] - ob == size &&
                    std::equal(net.begin(), net.end(), netPins_.begin() + ob)) {
                    netWeights_[static_cast<std::size_t>(other)] += w;
                    merged = true;
                    break;
                }
            }
            if (merged) continue;
            table[slot] = kept;
        }
        const auto dest = netPins_.begin() + write;
        if (dest != first) std::copy(first, last, dest);
        write += size;
        netWeights_[static_cast<std::size_t>(kept)] = w;
        netOffsets_[static_cast<std::size_t>(++kept)] = write;
    }
    // The arrays grew by appends; the immutable hypergraph keeps them, so
    // trim them to what survived.
    netOffsets_.resize(static_cast<std::size_t>(kept) + 1);
    netPins_.resize(static_cast<std::size_t>(write));
    netWeights_.resize(static_cast<std::size_t>(kept));
    netOffsets_.shrink_to_fit();
    netPins_.shrink_to_fit();
    netWeights_.shrink_to_fit();

    return HypergraphAssembler::assemble(std::move(netOffsets_), std::move(netPins_),
                                         std::move(netWeights_), std::move(areas_),
                                         std::move(names_));
}

} // namespace mlpart

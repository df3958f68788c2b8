// Allocation-free coarsening kernel: Induce (paper Definition 1) for one
// level of the V-cycle.
//
// induceInto() builds the coarse hypergraph in three steps:
//  - tentative nets, in two passes over fixed chunks of fine nets with a
//    serial prefix scan between them. Pass A counts each net's distinct
//    clusters with a per-worker cluster stamp; the scan drops nets that
//    connect fewer than two clusters and fixes every kept net's offset;
//    pass B fills each span, sorts it ascending (insertion sort for short
//    spans, std::sort for long ones) and fingerprints it;
//  - parallel-net merging via one sorted (fingerprint, net id) pass, which
//    sorts net ids instead of pin lists;
//  - emission of the kept nets into exactly-sized arrays.
// The chunk passes run on a thread pool when one is given and inline on
// the caller otherwise. Chunk boundaries depend only on the net count and
// every write is chunk-confined, so the result is the same for every
// thread count. Every scratch buffer lives in a CoarsenWorkspace that the
// caller keeps for the whole V-cycle, so after the first level the kernel
// allocates only the arrays the returned Hypergraph owns.
//
// The result equals induceReference() (the HypergraphBuilder path) byte
// for byte: netPinOffsets, netPins, netWeights, module-net CSR, areas and
// all cached statistics. Checked builds compare the two on every level
// (check::verifyIdenticalHypergraphs), and tests/coarsen_kernel_test pins
// it across the gen suite and thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "coarsen/clustering.h"
#include "hypergraph/hypergraph.h"

namespace mlpart::robust {
class ThreadPool; // robust/thread_pool.h
} // namespace mlpart::robust

namespace mlpart {

/// Scratch buffers for induceInto(), reused across levels, cycles, and
/// starts. Default-constructed empty; every buffer is (re)sized by
/// assign/resize inside the kernel, so capacity only ever grows — one
/// warm-up V-cycle leaves the workspace allocation-free for all smaller
/// or equal levels that follow.
struct CoarsenWorkspace {
    std::vector<std::int64_t> tentOffsets; ///< tentative-net pin CSR offsets
    std::vector<ModuleId> tentPinsSorted;  ///< tentative pins, ascending per net
    std::vector<Weight> tentWeights;       ///< tentative-net weights (merge sums here)
    std::vector<std::uint64_t> fingerprints; ///< per tentative net: pin-list hash
    std::vector<NetId> order;              ///< net ids sorted by (fingerprint, id)
    std::vector<NetId> repOf;              ///< per tentative net: merge representative
    std::vector<ModuleId> finePinCount;    ///< per fine net: deduped mapped-pin count
    std::vector<NetId> fineTent;           ///< per fine net: tentative id (kInvalidNet = dropped)
    std::vector<std::vector<std::int64_t>> threadStamp; ///< per worker: cluster stamp array

    /// Releases every scratch buffer back to the allocator (see
    /// refine::Workspace::shrinkToFit for the long-lived-host rationale).
    void shrinkToFit() {
        std::vector<std::int64_t>().swap(tentOffsets);
        std::vector<ModuleId>().swap(tentPinsSorted);
        std::vector<Weight>().swap(tentWeights);
        std::vector<std::uint64_t>().swap(fingerprints);
        std::vector<NetId>().swap(order);
        std::vector<NetId>().swap(repOf);
        std::vector<ModuleId>().swap(finePinCount);
        std::vector<NetId>().swap(fineTent);
        std::vector<std::vector<std::int64_t>>().swap(threadStamp);
    }

    /// Bytes of heap capacity currently held.
    [[nodiscard]] std::size_t capacityBytes() const {
        std::size_t n = tentOffsets.capacity() * sizeof(std::int64_t) +
                        tentPinsSorted.capacity() * sizeof(ModuleId) +
                        tentWeights.capacity() * sizeof(Weight) +
                        fingerprints.capacity() * sizeof(std::uint64_t) +
                        order.capacity() * sizeof(NetId) + repOf.capacity() * sizeof(NetId) +
                        finePinCount.capacity() * sizeof(ModuleId) +
                        fineTent.capacity() * sizeof(NetId) +
                        threadStamp.capacity() * sizeof(std::vector<std::int64_t>);
        for (const auto& row : threadStamp) n += row.capacity() * sizeof(std::int64_t);
        return n;
    }
};

/// Definition 1 coarsening through the dedicated kernel: the coarse
/// hypergraph induced by `c`, bit-identical to induceReference(). `ws`
/// supplies all scratch storage. The tentative-net passes run over fixed
/// net chunks on `pool` when it is non-null, else inline on the caller;
/// the output is the same either way and for every thread count.
[[nodiscard]] Hypergraph induceInto(const Hypergraph& h, const Clustering& c,
                                    CoarsenWorkspace& ws,
                                    robust::ThreadPool* pool = nullptr);

} // namespace mlpart

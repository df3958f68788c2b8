#include "coarsen/coarsen_kernel.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "hypergraph/assemble.h"
#include "robust/fault_injector.h"
#include "robust/memory_governor.h"
#include "robust/thread_pool.h"

#if MLPART_CHECK_INVARIANTS
#include <string>

#include "check/check_result.h"
#include "check/verify_hypergraph.h"
#include "coarsen/induce.h"
#endif

namespace mlpart {

namespace {

// FNV-1a over a sorted pin list. Only used to *group* candidate duplicate
// nets — merging always compares the full pin lists, so the result is
// independent of the hash function (and of the builder path's hash).
std::uint64_t fingerprintPins(const ModuleId* pins, std::int64_t count) {
    std::uint64_t fp = 1469598103934665603ULL;
    for (std::int64_t i = 0; i < count; ++i) {
        fp ^= static_cast<std::uint64_t>(pins[i]) + 0x9e3779b97f4a7c15ULL;
        fp *= 1099511628211ULL;
    }
    return fp;
}

/// Fine nets per chunk of the tentative-net passes. Fixed: chunk
/// boundaries depend only on the net count, never on the thread count.
constexpr std::int64_t kNetChunk = 256;

/// Pin spans up to this length sort by insertion; longer ones use
/// std::sort. Most coarse nets have a handful of pins, where insertion
/// sort beats introsort's setup cost.
constexpr std::int64_t kInsertionSortMax = 32;

void sortPins(ModuleId* first, ModuleId* last) {
    if (last - first > kInsertionSortMax) {
        std::sort(first, last);
        return;
    }
    for (ModuleId* i = first + 1; i < last; ++i) {
        const ModuleId x = *i;
        ModuleId* j = i;
        for (; j > first && *(j - 1) > x; --j) *j = *(j - 1);
        *j = x;
    }
}

/// Runs fn(worker, chunk) for every chunk: on `pool` when given, else
/// inline on the caller as worker 0 (what forChunks does at one thread).
template <typename F>
void forEachChunk(robust::ThreadPool* pool, std::int64_t chunks, F&& fn) {
    if (pool != nullptr) {
        pool->forChunks(chunks, std::forward<F>(fn));
        return;
    }
    for (std::int64_t chunk = 0; chunk < chunks; ++chunk) fn(0, chunk);
}

} // namespace

Hypergraph induceInto(const Hypergraph& h, const Clustering& c, CoarsenWorkspace& ws,
                      robust::ThreadPool* pool) {
    MLPART_FAULT_SITE("coarsen.induce");
    // Workspace allocation path is memory-governed: the tentative-net
    // scratch for this level is bounded by the fine level's pin count, so
    // a level that alone overflows a --mem-limit budget fails here as a
    // contained allocation failure instead of growing until the OOM
    // killer fires. Single relaxed load when no limit is set.
    robust::MemoryGovernor::instance().guardTransient(
        static_cast<std::uint64_t>(h.numPins()) * 24 +
        static_cast<std::uint64_t>(h.numModules()) * 16);
    validateClustering(h, c);
    const std::size_t ncSz = static_cast<std::size_t>(c.numClusters);
    const NetId m = h.numNets();
    const ModuleId* clusterOf = c.clusterOf.data();

    // Cluster areas are the sums of member areas (owned by the result).
    std::vector<Area> areas(ncSz, 0);
    for (ModuleId v = 0; v < h.numModules(); ++v)
        areas[static_cast<std::size_t>(clusterOf[v])] += h.area(v);

    // Tentative nets: two passes over fixed net chunks separated by one
    // serial prefix scan. Pass A counts each fine net's deduped mapped
    // pins (per-worker stamp arrays, so which worker handles a chunk is
    // unobservable); the scan drops nets that connect < 2 clusters and
    // assigns tentative ids and exact offsets; pass B fills each kept
    // net's span, sorts it ascending, and fingerprints it. Every write is
    // confined to the chunk's own nets, so the output is identical for
    // every thread count, and with no pool the chunks run on the caller.
    const int workers = pool != nullptr ? pool->threads() : 1;
    if (static_cast<int>(ws.threadStamp.size()) < workers)
        ws.threadStamp.resize(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) ws.threadStamp[static_cast<std::size_t>(w)].assign(ncSz, -1);
    ws.finePinCount.assign(static_cast<std::size_t>(m), 0);
    const std::int64_t chunks = robust::ThreadPool::chunkCount(m, kNetChunk);
    forEachChunk(pool, chunks, [&](int worker, std::int64_t chunk) {
        std::int64_t* stamp = ws.threadStamp[static_cast<std::size_t>(worker)].data();
        const NetId lo = static_cast<NetId>(chunk * kNetChunk);
        const NetId hiN = std::min<NetId>(m, static_cast<NetId>(lo + kNetChunk));
        for (NetId e = lo; e < hiN; ++e) {
            ModuleId count = 0;
            for (ModuleId v : h.pins(e)) {
                const std::size_t cl = static_cast<std::size_t>(clusterOf[v]);
                if (stamp[cl] != e) {
                    stamp[cl] = e;
                    ++count;
                }
            }
            ws.finePinCount[static_cast<std::size_t>(e)] = count;
        }
    });
    ws.fineTent.assign(static_cast<std::size_t>(m), kInvalidNet);
    ws.tentOffsets.clear();
    ws.tentOffsets.push_back(0);
    ws.tentWeights.clear();
    for (NetId e = 0; e < m; ++e) {
        const ModuleId count = ws.finePinCount[static_cast<std::size_t>(e)];
        if (count < 2) continue; // degenerate: connects < 2 clusters
        ws.fineTent[static_cast<std::size_t>(e)] = static_cast<NetId>(ws.tentWeights.size());
        ws.tentOffsets.push_back(ws.tentOffsets.back() + count);
        ws.tentWeights.push_back(h.netWeight(e));
    }
    const NetId tentCount = static_cast<NetId>(ws.tentWeights.size());
    ws.tentPinsSorted.resize(static_cast<std::size_t>(ws.tentOffsets.back()));
    ws.fingerprints.resize(static_cast<std::size_t>(tentCount));
    forEachChunk(pool, chunks, [&](int worker, std::int64_t chunk) {
        std::int64_t* stamp = ws.threadStamp[static_cast<std::size_t>(worker)].data();
        const NetId lo = static_cast<NetId>(chunk * kNetChunk);
        const NetId hiN = std::min<NetId>(m, static_cast<NetId>(lo + kNetChunk));
        for (NetId e = lo; e < hiN; ++e) {
            const NetId t = ws.fineTent[static_cast<std::size_t>(e)];
            if (t == kInvalidNet) continue;
            // Stamp marker m+e: distinct from every pass-A marker, so the
            // stamp arrays need no reset between passes.
            const std::int64_t marker = static_cast<std::int64_t>(m) + e;
            ModuleId* out = ws.tentPinsSorted.data() + ws.tentOffsets[t];
            std::int64_t filled = 0;
            for (ModuleId v : h.pins(e)) {
                const std::size_t cl = static_cast<std::size_t>(clusterOf[v]);
                if (stamp[cl] != marker) {
                    stamp[cl] = marker;
                    out[filled++] = static_cast<ModuleId>(cl);
                }
            }
            sortPins(out, out + filled);
            ws.fingerprints[static_cast<std::size_t>(t)] = fingerprintPins(out, filled);
        }
    });

    // Parallel-net merging via one sorted fingerprint pass.
    // Sorting (fingerprint, net id) pairs groups candidate duplicates;
    // within a group the ascending net-id walk merges every net into the
    // lowest-id net with an equal pin list, exactly like the builder's
    // hash-bucket scan (first kept candidate wins, weights sum).
    ws.order.resize(static_cast<std::size_t>(tentCount));
    std::iota(ws.order.begin(), ws.order.end(), 0);
    std::sort(ws.order.begin(), ws.order.end(), [&](NetId a, NetId b) {
        const std::uint64_t fa = ws.fingerprints[static_cast<std::size_t>(a)];
        const std::uint64_t fb = ws.fingerprints[static_cast<std::size_t>(b)];
        return fa != fb ? fa < fb : a < b;
    });
    ws.repOf.resize(static_cast<std::size_t>(tentCount));
    auto pinsEqual = [&](NetId a, NetId b) {
        const std::int64_t sa = ws.tentOffsets[a + 1] - ws.tentOffsets[a];
        const std::int64_t sb = ws.tentOffsets[b + 1] - ws.tentOffsets[b];
        if (sa != sb) return false;
        return std::equal(ws.tentPinsSorted.begin() + ws.tentOffsets[a],
                          ws.tentPinsSorted.begin() + ws.tentOffsets[a + 1],
                          ws.tentPinsSorted.begin() + ws.tentOffsets[b]);
    };
    for (std::size_t i = 0; i < ws.order.size();) {
        std::size_t j = i;
        const std::uint64_t fp = ws.fingerprints[static_cast<std::size_t>(ws.order[i])];
        while (j < ws.order.size() && ws.fingerprints[static_cast<std::size_t>(ws.order[j])] == fp) ++j;
        for (std::size_t g = i; g < j; ++g) {
            const NetId t = ws.order[g];
            ws.repOf[static_cast<std::size_t>(t)] = t;
            for (std::size_t g2 = i; g2 < g; ++g2) {
                const NetId r = ws.order[g2];
                if (ws.repOf[static_cast<std::size_t>(r)] != r) continue; // merged away
                if (pinsEqual(t, r)) {
                    ws.repOf[static_cast<std::size_t>(t)] = r;
                    ws.tentWeights[static_cast<std::size_t>(r)] +=
                        ws.tentWeights[static_cast<std::size_t>(t)];
                    break;
                }
            }
        }
        i = j;
    }

    // Emission — kept nets in first-occurrence (ascending tentative id)
    // order, into exactly-sized arrays owned by the result.
    NetId keptCount = 0;
    std::int64_t keptPinCount = 0;
    for (NetId t = 0; t < tentCount; ++t) {
        if (ws.repOf[static_cast<std::size_t>(t)] != t) continue;
        ++keptCount;
        keptPinCount += ws.tentOffsets[t + 1] - ws.tentOffsets[t];
    }
    std::vector<std::int64_t> netPinOffsets;
    netPinOffsets.reserve(static_cast<std::size_t>(keptCount) + 1);
    netPinOffsets.push_back(0);
    std::vector<ModuleId> netPins;
    netPins.reserve(static_cast<std::size_t>(keptPinCount));
    std::vector<Weight> netWeights;
    netWeights.reserve(static_cast<std::size_t>(keptCount));
    for (NetId t = 0; t < tentCount; ++t) {
        if (ws.repOf[static_cast<std::size_t>(t)] != t) continue;
        netPins.insert(netPins.end(), ws.tentPinsSorted.begin() + ws.tentOffsets[t],
                       ws.tentPinsSorted.begin() + ws.tentOffsets[t + 1]);
        netPinOffsets.push_back(static_cast<std::int64_t>(netPins.size()));
        netWeights.push_back(ws.tentWeights[static_cast<std::size_t>(t)]);
    }
    Hypergraph coarse = HypergraphAssembler::assemble(std::move(netPinOffsets),
                                                      std::move(netPins),
                                                      std::move(netWeights),
                                                      std::move(areas), {});
#if MLPART_CHECK_INVARIANTS
    {
        check::CheckResult r = check::verifyHypergraph(coarse);
        ++r.factsChecked;
        // "Module areas are preserved" (paper Section III): Induce must
        // never create or destroy area.
        if (coarse.totalArea() != h.totalArea())
            r.fail("induced total area " + std::to_string(coarse.totalArea()) +
                   " != fine total area " + std::to_string(h.totalArea()));
        // Differential oracle: the kernel must reproduce the legacy
        // builder path byte for byte.
        r.merge(check::verifyIdenticalHypergraphs(coarse, induceReference(h, c)));
        check::enforce(r, "induce");
    }
#endif
    return coarse;
}

} // namespace mlpart

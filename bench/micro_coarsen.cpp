// Microbenchmarks for the coarsening machinery: the three matchers (the
// paper's conn() Match, Chaco random, Metis heavy-edge), the Induce
// construction, and full one-level coarsening throughput.
#include <benchmark/benchmark.h>

#include <memory>
#include <random>

#include "coarsen/coarsen_kernel.h"
#include "coarsen/induce.h"
#include "coarsen/matcher.h"
#include "gen/benchmark_suite.h"
#include "robust/thread_pool.h"

using namespace mlpart;

namespace {

const Hypergraph& circuit() {
    static const Hypergraph h = benchmarkInstance("s15850", 0.5);
    return h;
}

void BM_Match(benchmark::State& state) {
    const CoarsenerKind kind = static_cast<CoarsenerKind>(state.range(0));
    const Hypergraph& h = circuit();
    std::mt19937_64 rng(1);
    for (auto _ : state) {
        const Clustering c = runMatcher(kind, h, {}, rng);
        benchmark::DoNotOptimize(c.numClusters);
    }
    state.SetItemsProcessed(state.iterations() * h.numModules());
}
BENCHMARK(BM_Match)->Arg(0)->Arg(1)->Arg(2); // match / random / heavy-edge

void BM_MatchRatioHalf(benchmark::State& state) {
    const Hypergraph& h = circuit();
    std::mt19937_64 rng(2);
    MatchConfig cfg;
    cfg.ratio = 0.5;
    for (auto _ : state) {
        const Clustering c = matchClustering(h, cfg, rng);
        benchmark::DoNotOptimize(c.numClusters);
    }
    state.SetItemsProcessed(state.iterations() * h.numModules());
}
BENCHMARK(BM_MatchRatioHalf);

// Arg = pool threads: 0 runs the kernel inline on the caller, 4 on a
// 4-thread pool. One workspace is reused, as in the V-cycle, so the
// timing excludes scratch allocation after the first iteration.
void BM_Induce(benchmark::State& state) {
    const Hypergraph& h = circuit();
    std::mt19937_64 rng(3);
    const Clustering c = matchClustering(h, {}, rng);
    const int threads = static_cast<int>(state.range(0));
    std::unique_ptr<robust::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<robust::ThreadPool>(threads);
    CoarsenWorkspace ws;
    for (auto _ : state) {
        const Hypergraph coarse = induceInto(h, c, ws, pool.get());
        benchmark::DoNotOptimize(coarse.numNets());
    }
    state.SetItemsProcessed(state.iterations() * h.numPins());
}
BENCHMARK(BM_Induce)->Arg(0)->Arg(4)->UseRealTime();

void BM_FullCoarsenLevel(benchmark::State& state) {
    const Hypergraph& h = circuit();
    std::mt19937_64 rng(4);
    for (auto _ : state) {
        const Clustering c = matchClustering(h, {}, rng);
        const Hypergraph coarse = induce(h, c);
        benchmark::DoNotOptimize(coarse.numModules());
    }
    state.SetItemsProcessed(state.iterations() * h.numModules());
}
BENCHMARK(BM_FullCoarsenLevel);

} // namespace

BENCHMARK_MAIN();

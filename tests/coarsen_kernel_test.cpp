// Differential tests pinning the coarsening kernel (induceInto), inline and
// on 1- and 4-thread pools, to the legacy HypergraphBuilder path
// (induceReference), plus the V-cycle
// allocation-discipline check: after one warm-up run, a whole V-cycle
// through pooled workspaces allocates O(levels) times, not
// O(levels x modules).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>

#include <gtest/gtest.h>

#include "check/verify_hypergraph.h"
#include "coarsen/coarsen_kernel.h"
#include "coarsen/induce.h"
#include "coarsen/matcher.h"
#include "core/multilevel.h"
#include "gen/benchmark_suite.h"
#include "kway/kway_refiner.h"
#include "refine/multistart.h"
#include "robust/thread_pool.h"
#include "test_util.h"

namespace mlpart {
namespace {

// ---- counting allocator -------------------------------------------------
// Global new/delete overrides: every heap allocation in the test binary
// bumps the counter. Only the deltas sampled around the code under test
// matter; gtest's own allocations outside those windows are irrelevant.
std::atomic<std::int64_t> g_allocCount{0};

std::int64_t allocationsSinceStart() { return g_allocCount.load(std::memory_order_relaxed); }

} // namespace
} // namespace mlpart

void* operator new(std::size_t size) {
    mlpart::g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    mlpart::g_allocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mlpart {
namespace {

/// Runs induceInto on `h`/`c` inline (no pool), on a 1-thread pool and on
/// a 4-thread pool, each with its own workspace, and checks every result
/// against induceReference. Returns the reference result.
class KernelRuns {
public:
    Hypergraph induceAndCompare(const Hypergraph& h, const Clustering& c) {
        const Hypergraph want = induceReference(h, c);
        robust::ThreadPool* pools[] = {nullptr, &pool1_, &pool4_};
        for (int i = 0; i < 3; ++i) {
            SCOPED_TRACE(::testing::Message()
                         << "pool threads " << (pools[i] == nullptr ? 0 : pools[i]->threads()));
            const Hypergraph got = induceInto(h, c, ws_[i], pools[i]);
            const check::CheckResult r = check::verifyIdenticalHypergraphs(got, want);
            EXPECT_TRUE(r.ok()) << r.summary();
            EXPECT_GT(r.factsChecked, 0);
        }
        return want;
    }

private:
    robust::ThreadPool pool1_{1};
    robust::ThreadPool pool4_{4};
    CoarsenWorkspace ws_[3];
};

/// Coarsens `h` level by level with the given matcher, comparing the
/// kernel's output at every pool size against the builder path on every
/// level.
void compareAllLevels(Hypergraph h, CoarsenerKind kind, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    KernelRuns runs;
    int guard = 0;
    while (h.numModules() > 35 && guard++ < 64) {
        MatchConfig mc;
        mc.ratio = 0.5;
        const Clustering c = runMatcher(kind, h, mc, rng);
        if (c.numClusters == h.numModules()) break; // no progress (tiny inputs)
        h = runs.induceAndCompare(h, c);
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(CoarsenKernelDifferential, GenSuiteAcrossSeeds) {
    // A spread of Table I synthetics (scaled) x seeds 1..5, connectivity
    // matching — the production configuration.
    for (const char* name : {"balu", "primary1", "struct", "test05", "primary2"}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SCOPED_TRACE(::testing::Message() << name << " seed " << seed);
            compareAllLevels(benchmarkInstance(name, 0.5), CoarsenerKind::kConnectivityMatch, seed);
        }
    }
}

TEST(CoarsenKernelDifferential, AlternateMatchers) {
    // Random and heavy-edge matchings produce differently-shaped
    // clusterings (more singletons / heavier clusters); the kernel must
    // stay bit-identical under them too.
    for (const CoarsenerKind kind : {CoarsenerKind::kRandomMatch, CoarsenerKind::kHeavyEdgeMatch}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SCOPED_TRACE(::testing::Message() << static_cast<int>(kind) << " seed " << seed);
            compareAllLevels(benchmarkInstance("primary1", 0.5), kind, seed);
        }
    }
}

TEST(CoarsenKernelDifferential, DegenerateClusterings) {
    const Hypergraph h = testing::tinyPath();
    CoarsenWorkspace ws;

    // Identity clustering: coarse == fine.
    Clustering ident;
    ident.numClusters = h.numModules();
    for (ModuleId v = 0; v < h.numModules(); ++v) ident.clusterOf.push_back(v);
    auto r = check::verifyIdenticalHypergraphs(induceInto(h, ident, ws), induceReference(h, ident));
    EXPECT_TRUE(r.ok()) << r.summary();

    // Everything in one cluster: all nets vanish.
    Clustering one;
    one.numClusters = 1;
    one.clusterOf.assign(static_cast<std::size_t>(h.numModules()), 0);
    const Hypergraph coarse = induceInto(h, one, ws);
    EXPECT_EQ(coarse.numModules(), 1);
    EXPECT_EQ(coarse.numNets(), 0);
    r = check::verifyIdenticalHypergraphs(coarse, induceReference(h, one));
    EXPECT_TRUE(r.ok()) << r.summary();

    // Pairs that force parallel coarse nets ({0,1}{1,2} -> both {A,B}).
    Clustering pairs;
    pairs.numClusters = 3;
    pairs.clusterOf = {0, 0, 1, 1, 2, 2};
    r = check::verifyIdenticalHypergraphs(induceInto(h, pairs, ws), induceReference(h, pairs));
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(CoarsenKernelDifferential, SortCutoffSpans) {
    // Coarse nets of 2, 32, 33 and 200 pins straddle the kernel's
    // insertion-sort/std::sort cutoff. The clustering pairs modules and
    // numbers the pairs from the top down, so every fine net's clusters
    // arrive in descending order: the worst case for the short-span sort.
    const ModuleId n = 440;
    HypergraphBuilder b(n);
    for (const ModuleId span : {2, 32, 33, 200}) {
        for (const ModuleId base : {0, 40}) {
            std::vector<ModuleId> both; // both pair members of `span` pairs
            std::vector<ModuleId> one;  // one member each: a parallel net
            for (ModuleId v = base; v < base + 2 * span; ++v) {
                both.push_back(v);
                if (v % 2 == 0) one.push_back(v + 1);
            }
            b.addNet(both);
            b.addNet(one, 2);
        }
    }
    const Hypergraph h = std::move(b).build();
    Clustering c;
    c.numClusters = n / 2;
    for (ModuleId v = 0; v < n; ++v) c.clusterOf.push_back((n - 1 - v) / 2);

    KernelRuns runs;
    const Hypergraph coarse = runs.induceAndCompare(h, c);
    std::vector<std::int64_t> sizes;
    for (NetId e = 0; e < coarse.numNets(); ++e) sizes.push_back(coarse.netSize(e));
    for (const std::int64_t span : {2, 32, 33, 200})
        EXPECT_NE(std::find(sizes.begin(), sizes.end(), span), sizes.end()) << span;
    // Each `one` net merged into its `both` twin.
    EXPECT_EQ(coarse.numNets(), 8);
}

TEST(VCycleAllocationDiscipline, WarmRunsAllocateOLevels) {
#if MLPART_CHECK_INVARIANTS
    // The checked build's differential oracle re-runs the builder-path
    // induce (and allocates audit state) on every level, so the
    // production-build allocation bound does not apply.
    GTEST_SKIP() << "allocation discipline is asserted in non-checked builds only";
#endif
    const Hypergraph h = testing::mediumCircuit(4000, 11);

    MLConfig cfg;
    cfg.matchingRatio = 0.5;
    FMConfig fm;
    fm.variant = EngineVariant::kCLIP;
    const MultilevelPartitioner ml(cfg, makeFMFactory(fm));

    MLWorkspace ws;
    std::mt19937_64 rng(1);
    const MLResult warm = ml.run(h, rng, robust::Deadline{}, ws); // sizes every pooled buffer
    ASSERT_GT(warm.levels, 3);

    const std::int64_t before = allocationsSinceStart();
    const MLResult second = ml.run(h, rng, robust::Deadline{}, ws);
    const std::int64_t warmAllocs = allocationsSinceStart() - before;

    // O(levels), not O(levels x modules): per level the driver may create
    // a handful of transient owners (the returned Hypergraph's arrays, the
    // per-level partition, refiner construction) — a generous constant per
    // level plus slack for the returned MLResult, but nowhere near the
    // module count. The pre-pooling driver spent tens of thousands of
    // allocations here.
    const std::int64_t perLevelBudget = 48;
    EXPECT_LT(warmAllocs, 128 + perLevelBudget * static_cast<std::int64_t>(second.levels))
        << "warm V-cycle allocated " << warmAllocs << " times over " << second.levels
        << " levels";
    EXPECT_LT(warmAllocs, static_cast<std::int64_t>(h.numModules()));
}

TEST(VCycleAllocationDiscipline, KWayWarmRunsAllocateOLevels) {
#if MLPART_CHECK_INVARIANTS
    GTEST_SKIP() << "allocation discipline is asserted in non-checked builds only";
#endif
    // The k-way twin of the bound above: with the k*(k-1) gain-bucket
    // head/tail lists bump-bound to Workspace::kBucketArena, a warm
    // quadrisection V-cycle must stay O(levels) too.
    const Hypergraph h = testing::mediumCircuit(4000, 13);

    MLConfig cfg;
    cfg.k = 4;
    cfg.coarseningThreshold = 100;
    cfg.matchingRatio = 0.5;
    KWayConfig kw;
    kw.clip = true;
    const MultilevelPartitioner ml(cfg, makeKWayFactory(kw));

    MLWorkspace ws;
    std::mt19937_64 rng(1);
    const MLResult warm = ml.run(h, rng, robust::Deadline{}, ws);
    ASSERT_GT(warm.levels, 3);

    const std::int64_t before = allocationsSinceStart();
    const MLResult second = ml.run(h, rng, robust::Deadline{}, ws);
    const std::int64_t warmAllocs = allocationsSinceStart() - before;

    const std::int64_t perLevelBudget = 64;
    EXPECT_LT(warmAllocs, 128 + perLevelBudget * static_cast<std::int64_t>(second.levels))
        << "warm k-way V-cycle allocated " << warmAllocs << " times over " << second.levels
        << " levels";
    EXPECT_LT(warmAllocs, static_cast<std::int64_t>(h.numModules()));
}

} // namespace
} // namespace mlpart

// Tests for the Match coarsening algorithm, the ablation matchers, and the
// Induce/Project primitives.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <random>
#include <string>

#include "coarsen/induce.h"
#include "coarsen/matcher.h"
#include "gen/benchmark_suite.h"
#include "gen/grid_generator.h"
#include "robust/thread_pool.h"
#include "test_util.h"

namespace mlpart {
namespace {

// Every cluster produced by a matcher has at most two modules.
void expectIsMatching(const Clustering& c) {
    std::vector<int> sizes(static_cast<std::size_t>(c.numClusters), 0);
    for (ModuleId cl : c.clusterOf) sizes[static_cast<std::size_t>(cl)]++;
    for (int s : sizes) {
        EXPECT_GE(s, 1);
        EXPECT_LE(s, 2);
    }
}

class MatcherKindTest : public ::testing::TestWithParam<CoarsenerKind> {};

TEST_P(MatcherKindTest, ProducesValidMatching) {
    const Hypergraph h = testing::mediumCircuit(400);
    std::mt19937_64 rng(1);
    const Clustering c = runMatcher(GetParam(), h, {}, rng);
    validateClustering(h, c);
    expectIsMatching(c);
    // A maximal matching on a connected-ish circuit should shrink it well
    // below 75%.
    EXPECT_LT(c.numClusters, h.numModules() * 3 / 4);
}

TEST_P(MatcherKindTest, RatioLimitsMatchedFraction) {
    const Hypergraph h = testing::mediumCircuit(600);
    std::mt19937_64 rng(2);
    MatchConfig cfg;
    cfg.ratio = 0.5;
    const Clustering c = runMatcher(GetParam(), h, cfg, rng);
    validateClustering(h, c);
    expectIsMatching(c);
    // Matched modules = 2 * (numModules - numClusters). With R = 0.5 at
    // most ~half the modules are matched (plus one final pair).
    const std::int64_t matched = 2 * (h.numModules() - c.numClusters);
    EXPECT_LE(matched, static_cast<std::int64_t>(0.5 * h.numModules()) + 2);
}

TEST_P(MatcherKindTest, ExclusionKeepsModulesSingleton) {
    const Hypergraph h = testing::mediumCircuit(200);
    std::mt19937_64 rng(3);
    MatchConfig cfg;
    cfg.excluded.assign(static_cast<std::size_t>(h.numModules()), 0);
    cfg.excluded[5] = cfg.excluded[6] = 1;
    const Clustering c = runMatcher(GetParam(), h, cfg, rng);
    // Excluded modules must be alone in their clusters.
    for (ModuleId v = 0; v < h.numModules(); ++v) {
        if (v == 5 || v == 6) continue;
        EXPECT_NE(c.clusterOf[static_cast<std::size_t>(v)], c.clusterOf[5]);
        EXPECT_NE(c.clusterOf[static_cast<std::size_t>(v)], c.clusterOf[6]);
    }
}

INSTANTIATE_TEST_SUITE_P(AllMatchers, MatcherKindTest,
                         ::testing::Values(CoarsenerKind::kConnectivityMatch,
                                           CoarsenerKind::kRandomMatch,
                                           CoarsenerKind::kHeavyEdgeMatch),
                         [](const ::testing::TestParamInfo<CoarsenerKind>& info) {
                             return std::string(toString(info.param)) == "heavy-edge"
                                        ? "heavy_edge"
                                        : toString(info.param);
                         });

TEST(Match, PrefersStronglyConnectedPairs) {
    // Two strongly tied pairs joined by a weak bridge. Whatever the visit
    // permutation, every module's best unmatched partner is its strong
    // mate (conn 1.0 > bridge conn 0.25), so the bridge can never match.
    HypergraphBuilder b(4);
    b.addNet({0, 1}, 2);
    b.addNet({2, 3}, 2);
    b.addNet({1, 2}); // bridge, weight 1
    const Hypergraph h = std::move(b).build();
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        const Clustering c = matchClustering(h, {}, rng);
        EXPECT_EQ(c.clusterOf[0], c.clusterOf[1]);
        EXPECT_EQ(c.clusterOf[2], c.clusterOf[3]);
    }
}

TEST(Match, AreaNormalizationPrefersSmallPartners) {
    // Modules 2 and 3 are huge; raw connectivity would let 2 grab 0
    // (weight-1 net) over 3 (weight-2 net gives conn 2/20 = 0.1 vs
    // 1/11 = 0.09)... every module's normalized best partner is
    // deterministic here: 0<->1 (conn 0.5) and 2<->3 (conn 0.1 beats
    // 2's alternative 0 at 0.091), for any visit order.
    HypergraphBuilder b(4);
    b.setArea(2, 10);
    b.setArea(3, 10);
    b.addNet({0, 1});
    b.addNet({0, 2});
    b.addNet({2, 3}, 2);
    const Hypergraph h = std::move(b).build();
    std::mt19937_64 rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        const Clustering c = matchClustering(h, {}, rng);
        EXPECT_EQ(c.clusterOf[0], c.clusterOf[1]);
        EXPECT_EQ(c.clusterOf[2], c.clusterOf[3]);
    }
}

TEST(Match, ConnRespectsNetWeight) {
    // 0's partners: 1 via a weight-3 net (conn 1.5), 2 via a weight-1 net
    // (conn 0.5); 1 and 2 have no other neighbours. {0,1} must form for
    // every visiting order: if 1 or 2 is visited first it picks 0 only if
    // 0 is its best — for 1 and 2 module 0 is the only neighbour, but
    // whoever of {1,2} comes before 0 grabs it... so pin the order by
    // giving 2 a better partner of its own.
    HypergraphBuilder b(4);
    b.addNet({0, 1}, 3);
    b.addNet({0, 2});
    b.addNet({2, 3}, 3);
    const Hypergraph h = std::move(b).build();
    std::mt19937_64 rng(13);
    for (int trial = 0; trial < 20; ++trial) {
        const Clustering c = matchClustering(h, {}, rng);
        EXPECT_EQ(c.clusterOf[0], c.clusterOf[1]);
        EXPECT_EQ(c.clusterOf[2], c.clusterOf[3]);
    }
}

TEST(Match, IgnoresLargeNets) {
    // Only connection between 0 and 1 is a big net above the limit: no
    // matching possible.
    HypergraphBuilder b(12);
    std::vector<ModuleId> big;
    for (ModuleId v = 0; v < 12; ++v) big.push_back(v);
    b.addNet(big);
    const Hypergraph h = std::move(b).build();
    std::mt19937_64 rng(13);
    MatchConfig cfg;
    cfg.maxNetSize = 10;
    const Clustering c = matchClustering(h, cfg, rng);
    EXPECT_EQ(c.numClusters, 12); // all singletons
}

TEST(Match, RejectsBadConfig) {
    const Hypergraph h = testing::tinyPath();
    std::mt19937_64 rng(1);
    MatchConfig cfg;
    cfg.ratio = 0.0;
    EXPECT_THROW(matchClustering(h, cfg, rng), std::invalid_argument);
    cfg = {};
    cfg.ratio = 1.5;
    EXPECT_THROW(matchClustering(h, cfg, rng), std::invalid_argument);
    cfg = {};
    cfg.maxNetSize = 1;
    EXPECT_THROW(matchClustering(h, cfg, rng), std::invalid_argument);
    cfg = {};
    cfg.excluded.assign(3, 0);
    EXPECT_THROW(matchClustering(h, cfg, rng), std::invalid_argument);
}

TEST(Clustering, ValidateCatchesCorruption) {
    const Hypergraph h = testing::tinyPath();
    Clustering c = identityClustering(h);
    EXPECT_NO_THROW(validateClustering(h, c));
    c.clusterOf[0] = 99;
    EXPECT_THROW(validateClustering(h, c), std::invalid_argument);
    c = identityClustering(h);
    c.numClusters = 7; // id 6 never used -> not dense
    EXPECT_THROW(validateClustering(h, c), std::invalid_argument);
}

TEST(Induce, PreservesAreaAndDropsInternalNets) {
    const Hypergraph h = testing::tinyPath();
    // Pair (0,1), (2,3), (4,5).
    Clustering c;
    c.clusterOf = {0, 0, 1, 1, 2, 2};
    c.numClusters = 3;
    const Hypergraph coarse = induce(h, c);
    EXPECT_EQ(coarse.numModules(), 3);
    EXPECT_EQ(coarse.totalArea(), h.totalArea());
    EXPECT_EQ(coarse.area(0), 2);
    // Nets {0,1},{2,3},{4,5} vanish; {1,2} -> {0,1}, {3,4} -> {1,2},
    // {0,2,4} -> {0,1,2}.
    EXPECT_EQ(coarse.numNets(), 3);
}

TEST(Induce, MergesParallelNetsPreservingWeight) {
    HypergraphBuilder b(4);
    b.addNet({0, 2});
    b.addNet({1, 3}); // becomes parallel to the first after clustering
    const Hypergraph h = std::move(b).build();
    Clustering c;
    c.clusterOf = {0, 0, 1, 1};
    c.numClusters = 2;
    const Hypergraph coarse = induce(h, c);
    ASSERT_EQ(coarse.numNets(), 1);
    EXPECT_EQ(coarse.netWeight(0), 2);
}

TEST(Project, InvertsInduceAssignment) {
    const Hypergraph h = testing::tinyPath();
    Clustering c;
    c.clusterOf = {0, 0, 1, 1, 2, 2};
    c.numClusters = 3;
    const Hypergraph coarse = induce(h, c);
    const Partition coarseP(coarse, 2, {0, 0, 1});
    const Partition fineP = project(h, c, coarseP);
    EXPECT_EQ(fineP.part(0), 0);
    EXPECT_EQ(fineP.part(3), 0);
    EXPECT_EQ(fineP.part(4), 1);
    EXPECT_EQ(fineP.blockArea(1), 2);
}

TEST(InduceProject, CutWeightInvariantHolds) {
    // The documented invariant: cutWeight(coarse, P) ==
    // cutWeight(fine, project(P)) for any coarse partition.
    const Hypergraph h = testing::mediumCircuit(500);
    std::mt19937_64 rng(17);
    const Clustering c = matchClustering(h, {}, rng);
    const Hypergraph coarse = induce(h, c);
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<PartId> assign(static_cast<std::size_t>(coarse.numModules()));
        for (auto& p : assign) p = static_cast<PartId>(rng() % 2);
        const Partition coarseP(coarse, 2, std::move(assign));
        const Partition fineP = project(h, c, coarseP);
        EXPECT_EQ(cutWeight(coarse, coarseP), cutWeight(h, fineP)) << "trial " << trial;
    }
}

TEST(InduceProject, InvariantHoldsThroughMultipleLevels) {
    const Hypergraph h0 = testing::mediumCircuit(800, 23);
    std::mt19937_64 rng(19);
    MatchConfig cfg;
    cfg.ratio = 0.5;
    const Clustering c01 = matchClustering(h0, cfg, rng);
    const Hypergraph h1 = induce(h0, c01);
    const Clustering c12 = matchClustering(h1, cfg, rng);
    const Hypergraph h2 = induce(h1, c12);
    EXPECT_LT(h2.numModules(), h1.numModules());
    EXPECT_LT(h1.numModules(), h0.numModules());
    EXPECT_EQ(h2.totalArea(), h0.totalArea());

    std::vector<PartId> assign(static_cast<std::size_t>(h2.numModules()));
    for (auto& p : assign) p = static_cast<PartId>(rng() % 2);
    const Partition p2(h2, 2, std::move(assign));
    const Partition p1 = project(h1, c12, p2);
    const Partition p0 = project(h0, c01, p1);
    EXPECT_EQ(cutWeight(h2, p2), cutWeight(h1, p1));
    EXPECT_EQ(cutWeight(h1, p1), cutWeight(h0, p0));
}

TEST(Induce, GridCoarseningKeepsGridLikeStructure) {
    const Hypergraph h = generateGrid({10, 10, false});
    std::mt19937_64 rng(29);
    const Clustering c = matchClustering(h, {}, rng);
    const Hypergraph coarse = induce(h, c);
    EXPECT_GT(coarse.numNets(), 0);
    EXPECT_LE(coarse.numModules(), 55);
    EXPECT_GE(coarse.numModules(), 50); // perfect matching halves 100
}

// ---- golden clusterings --------------------------------------------------
// FNV-1a over (numClusters, clusterOf) for fixed circuits, seeds and
// configs. The matchers' visit order, tie-breaks and floating-point
// accumulation order decide every committed cut, so any refactor of the
// matchers must leave these hashes unchanged. A deliberate behaviour change
// updates the table (each failing case prints its new value).
std::uint64_t clusteringHash(const Clustering& c) {
    std::uint64_t fp = 1469598103934665603ULL;
    auto mix = [&](std::uint64_t x) {
        fp ^= x + 0x9e3779b97f4a7c15ULL;
        fp *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(c.numClusters));
    for (ModuleId cl : c.clusterOf) mix(static_cast<std::uint64_t>(cl));
    return fp;
}

std::string hex(std::uint64_t x) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(x));
    return buf;
}

/// `h` with non-unit areas and net weights, so the connectivity and
/// heavy-edge scores (which differ only by area normalization) and the
/// weighted conn accumulation all show in the hashes.
Hypergraph weighted(const Hypergraph& h) {
    HypergraphBuilder b(h.numModules());
    for (ModuleId v = 0; v < h.numModules(); ++v) b.setArea(v, 1 + (v * 7) % 5);
    for (NetId e = 0; e < h.numNets(); ++e) b.addNet(h.pins(e), 1 + e % 3);
    return std::move(b).build();
}

/// Golden-case configs: the plain matcher at R = 1.0 and 0.5, and R = 1.0
/// with every pin filter armed (excluded pads, same-block-only, a tight
/// net-size limit).
MatchConfig goldenConfig(const Hypergraph& h, int variant) {
    MatchConfig mc;
    mc.ratio = variant == 1 ? 0.5 : 1.0;
    if (variant == 2) {
        mc.maxNetSize = 4;
        mc.excluded.assign(static_cast<std::size_t>(h.numModules()), 0);
        mc.sameBlockOnly.assign(static_cast<std::size_t>(h.numModules()), 0);
        for (ModuleId v = 0; v < h.numModules(); ++v) {
            mc.excluded[static_cast<std::size_t>(v)] = v % 17 == 0 ? 1 : 0;
            mc.sameBlockOnly[static_cast<std::size_t>(v)] = static_cast<PartId>((v / 7) % 2);
        }
    }
    return mc;
}

struct GoldenCase {
    const char* circuit;
    CoarsenerKind kind;
    int variant;
    std::uint64_t sequential; ///< runMatcher with std::mt19937_64(circuit seed)
    std::uint64_t parallel;   ///< matchParallel at 1 and 4 threads
};

constexpr GoldenCase kGolden[] = {
    {"primary1", CoarsenerKind::kConnectivityMatch, 0, 0x84b435ef67c3b9f7ULL, 0xcf7716d3c222dc99ULL},
    {"primary1", CoarsenerKind::kConnectivityMatch, 1, 0xaf533b9749926a6bULL, 0x9740e8d7ae1f6dceULL},
    {"primary1", CoarsenerKind::kConnectivityMatch, 2, 0x24b21bcc97f96802ULL, 0x3189bf667cf97e74ULL},
    {"primary1", CoarsenerKind::kRandomMatch, 0, 0x59039321ffc928c1ULL, 0xabb450156f33c9ffULL},
    {"primary1", CoarsenerKind::kRandomMatch, 1, 0xf24799c7576987fdULL, 0x3b3ce50f0f390998ULL},
    {"primary1", CoarsenerKind::kRandomMatch, 2, 0x55e036f19b6fb28bULL, 0x8eb625109747c8baULL},
    {"primary1", CoarsenerKind::kHeavyEdgeMatch, 0, 0x84b435ef67c3b9f7ULL, 0xcf7716d3c222dc99ULL},
    {"primary1", CoarsenerKind::kHeavyEdgeMatch, 1, 0xaf533b9749926a6bULL, 0x9740e8d7ae1f6dceULL},
    {"primary1", CoarsenerKind::kHeavyEdgeMatch, 2, 0x24b21bcc97f96802ULL, 0x3189bf667cf97e74ULL},
    {"struct", CoarsenerKind::kConnectivityMatch, 0, 0xe1648c833fa564ecULL, 0x796139dd146e6c0dULL},
    {"struct", CoarsenerKind::kConnectivityMatch, 1, 0x672c3793d852ac7aULL, 0xbe01fbb7dcec23eaULL},
    {"struct", CoarsenerKind::kConnectivityMatch, 2, 0x4a0215dbb0a7871dULL, 0x0a136a94d28b996eULL},
    {"struct", CoarsenerKind::kRandomMatch, 0, 0xe7efc6703c382167ULL, 0x3209fcbac6d7ce53ULL},
    {"struct", CoarsenerKind::kRandomMatch, 1, 0xd61e75bba492d608ULL, 0xe7ab899e7c7e54e1ULL},
    {"struct", CoarsenerKind::kRandomMatch, 2, 0x949545d64f636f2aULL, 0x838fa0f946690f63ULL},
    {"struct", CoarsenerKind::kHeavyEdgeMatch, 0, 0xffa3b190575d248aULL, 0xeb18f66dc8885a84ULL},
    {"struct", CoarsenerKind::kHeavyEdgeMatch, 1, 0x7e13e06c527d1b76ULL, 0x7028172443dba751ULL},
    {"struct", CoarsenerKind::kHeavyEdgeMatch, 2, 0x69cfc43b4bee0480ULL, 0x257a121ac5f53eb3ULL},
};

TEST(MatchGolden, ClusteringHashesArePinned) {
    const CoarsenerKind kinds[] = {CoarsenerKind::kConnectivityMatch, CoarsenerKind::kRandomMatch,
                                   CoarsenerKind::kHeavyEdgeMatch};
    robust::ThreadPool pool1(1);
    robust::ThreadPool pool4(4);
    std::size_t next = 0;
    for (const char* circuit : {"primary1", "struct"}) {
        // primary1 as generated (unit areas and weights); struct weighted.
        const bool plain = std::string(circuit) == "primary1";
        const Hypergraph h = plain ? benchmarkInstance(circuit, 0.5)
                                   : weighted(benchmarkInstance(circuit, 0.5));
        const std::uint64_t seed = plain ? 11 : 23;
        for (const CoarsenerKind kind : kinds) {
            for (int variant = 0; variant < 3; ++variant) {
                SCOPED_TRACE(::testing::Message() << circuit << " " << toString(kind) << " variant "
                                                  << variant);
                const MatchConfig mc = goldenConfig(h, variant);
                std::mt19937_64 rng(seed);
                const std::uint64_t seq = clusteringHash(runMatcher(kind, h, mc, rng));
                MatchWorkspace ws1, ws4;
                const std::uint64_t par1 =
                    clusteringHash(matchParallel(kind, h, mc, seed, pool1, ws1));
                const std::uint64_t par4 =
                    clusteringHash(matchParallel(kind, h, mc, seed, pool4, ws4));
                EXPECT_EQ(par1, par4);
                ASSERT_LT(next, std::size(kGolden));
                const GoldenCase& g = kGolden[next++];
                ASSERT_STREQ(g.circuit, circuit);
                ASSERT_EQ(g.kind, kind);
                ASSERT_EQ(g.variant, variant);
                EXPECT_EQ(hex(seq), hex(g.sequential)) << "runMatcher";
                EXPECT_EQ(hex(par1), hex(g.parallel)) << "matchParallel";
            }
        }
    }
    EXPECT_EQ(next, std::size(kGolden));
}

} // namespace
} // namespace mlpart

// Contract tests for the src/perf classification kernels (DESIGN.md §14).
//
// Each kernel is checked against an independent reference loop written
// here, with branches, straight from the formulas documented in
// perf/simd.h — not against another copy of the kernel. Inputs are random
// and cover the edge cases the formulas distinguish: pin counts in
// {0, 1, 2, many}, inactive nets, weights up to 2^32, and lengths that are
// not multiples of any vector width. Test names keep their "OnEveryTier"
// suffix so their ids stay stable; there is one tier (perf::SimdTier).
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "perf/simd.h"

namespace mlpart {
namespace {

struct NetFixture {
    std::vector<std::int32_t> pc;      ///< interleaved [2e + side]
    std::vector<char> active;
    std::vector<Weight> weight;
    std::vector<perf::NetHot> hot;     ///< same nets as AoS records
};

NetFixture randomNets(std::size_t m, std::mt19937_64& rng) {
    NetFixture f;
    f.pc.resize(2 * m);
    f.active.resize(m);
    f.weight.resize(m);
    f.hot.resize(m);
    std::uniform_int_distribution<std::int32_t> countDist(0, 5);
    std::uniform_int_distribution<Weight> weightDist(1, (Weight{1} << 32));
    for (std::size_t e = 0; e < m; ++e) {
        f.active[e] = (rng() % 8) != 0 ? 1 : 0;
        f.pc[2 * e] = countDist(rng);
        f.pc[2 * e + 1] = countDist(rng);
        f.weight[e] = weightDist(rng);
        if (f.active[e] != 0) {
            f.hot[e] = perf::NetHot{{f.pc[2 * e], f.pc[2 * e + 1]}, f.weight[e]};
        } else {
            f.hot[e] = perf::NetHot{{-1, -1}, 0};
        }
    }
    return f;
}

/// classifyNets as specified: the FM gain contribution of net e to a
/// module on each side, zero for inactive nets, plus the cut flag. A
/// one-pin net gets both terms, which cancel.
void referenceClassify(const NetFixture& f, std::vector<Weight>& gain, std::vector<char>& cut) {
    const std::size_t m = f.active.size();
    gain.assign(2 * m, 0);
    cut.assign(m, 0);
    for (std::size_t e = 0; e < m; ++e) {
        if (f.active[e] == 0) continue;
        const std::int32_t p[2] = {f.pc[2 * e], f.pc[2 * e + 1]};
        for (int s = 0; s < 2; ++s) {
            Weight g = 0;
            if (p[s] == 1) g += f.weight[e];     // the last side-s pin leaves
            if (p[1 - s] == 0) g -= f.weight[e]; // the first pin crosses over
            gain[static_cast<std::size_t>(s) * m + e] = g;
        }
        cut[e] = (p[0] > 0 && p[1] > 0) ? 1 : 0;
    }
}

TEST(SimdKernels, ClassifyNetsMatchesScalarOnEveryTier) {
    std::mt19937_64 rng(11);
    for (const std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                std::size_t{1000}, std::size_t{4097}}) {
        const NetFixture f = randomNets(m, rng);
        std::vector<Weight> wantGain;
        std::vector<char> wantCut;
        referenceClassify(f, wantGain, wantCut);
        std::vector<Weight> gain(2 * m, -1);
        std::vector<char> cut(m, 2);
        perf::classifyNets(f.pc.data(), f.active.data(), f.weight.data(), m, gain.data(),
                           cut.data());
        EXPECT_EQ(gain, wantGain) << "m=" << m;
        EXPECT_EQ(cut, wantCut) << "m=" << m;
        // The cut pointer is optional; the gain planes must not change.
        std::vector<Weight> gainNoCut(2 * m, -1);
        perf::classifyNets(f.pc.data(), f.active.data(), f.weight.data(), m, gainNoCut.data(),
                           nullptr);
        EXPECT_EQ(gainNoCut, wantGain) << "m=" << m;
    }
}

TEST(SimdKernels, ClassifyNetsHotMatchesSoAKernelAndScalar) {
    // FM classifies NetHot records, the LP pre-pass the SoA arrays: both
    // must agree with the reference and so with each other, bit for bit.
    std::mt19937_64 rng(12);
    for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{63},
                                std::size_t{1024}, std::size_t{5001}}) {
        const NetFixture f = randomNets(m, rng);
        std::vector<Weight> wantGain;
        std::vector<char> wantCut;
        referenceClassify(f, wantGain, wantCut);
        std::vector<Weight> soaGain(2 * m, -1);
        std::vector<char> soaCut(m, 2);
        perf::classifyNets(f.pc.data(), f.active.data(), f.weight.data(), m, soaGain.data(),
                           soaCut.data());
        std::vector<Weight> gain(2 * m, -1);
        std::vector<char> cut(m, 2);
        perf::classifyNetsHot(f.hot.data(), m, gain.data(), cut.data());
        EXPECT_EQ(gain, wantGain) << "m=" << m;
        EXPECT_EQ(cut, wantCut) << "m=" << m;
        EXPECT_EQ(gain, soaGain) << "m=" << m;
        EXPECT_EQ(cut, soaCut) << "m=" << m;
        std::vector<Weight> gainNoCut(2 * m, -1);
        perf::classifyNetsHot(f.hot.data(), m, gainNoCut.data(), nullptr);
        EXPECT_EQ(gainNoCut, wantGain) << "m=" << m;
    }
}

TEST(SimdKernels, GatherSumMatchesScalarOnEveryTier) {
    std::mt19937_64 rng(13);
    const std::size_t planeLen = 3000;
    std::vector<Weight> plane(planeLen);
    std::uniform_int_distribution<Weight> vDist(-(Weight{1} << 40), Weight{1} << 40);
    for (Weight& w : plane) w = vDist(rng);
    std::uniform_int_distribution<NetId> idxDist(0, static_cast<NetId>(planeLen - 1));
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                    std::size_t{33}, std::size_t{257}}) {
        std::vector<NetId> idx(count);
        for (NetId& i : idx) i = idxDist(rng);
        Weight want = 0;
        for (std::size_t i = count; i-- > 0;) want += plane[static_cast<std::size_t>(idx[i])];
        EXPECT_EQ(perf::gatherSum(plane.data(), idx.data(), count), want) << "count=" << count;
    }
}

TEST(SimdKernels, ClassifyKWayCountsMatchesScalarOnEveryTier) {
    std::mt19937_64 rng(14);
    for (const std::int32_t k : {2, 3, 4, 8, 64}) {
        const std::size_t m = 701;
        const std::size_t kSz = static_cast<std::size_t>(k);
        std::vector<std::int32_t> counts(m * kSz);
        std::vector<char> active(m);
        std::uniform_int_distribution<std::int32_t> countDist(0, 3);
        for (std::size_t e = 0; e < m; ++e) {
            active[e] = (rng() % 8) != 0 ? 1 : 0;
            for (std::size_t j = 0; j < kSz; ++j) counts[e * kSz + j] = countDist(rng);
        }
        std::vector<std::uint64_t> want1(m, 0), want0(m, 0);
        for (std::size_t e = 0; e < m; ++e) {
            if (active[e] == 0) continue;
            for (std::size_t j = 0; j < kSz; ++j) {
                if (counts[e * kSz + j] == 1) want1[e] |= std::uint64_t{1} << j;
                if (counts[e * kSz + j] == 0) want0[e] |= std::uint64_t{1} << j;
            }
        }
        std::vector<std::uint64_t> got1(m, ~0ULL), got0(m, ~0ULL);
        perf::classifyKWayCounts(counts.data(), active.data(), m, k, got1.data(), got0.data());
        EXPECT_EQ(got1, want1) << "k=" << k;
        EXPECT_EQ(got0, want0) << "k=" << k;
    }
}

TEST(SimdKernels, OneScalarTier) {
    EXPECT_EQ(perf::activeTier(), perf::SimdTier::kScalar);
    EXPECT_STREQ(perf::toString(perf::activeTier()), "scalar");
}

} // namespace
} // namespace mlpart

// Tests for the FM gain bucket structure, parameterized over the three
// bucket organizations of Table II.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "refine/gain_bucket.h"

namespace mlpart {
namespace {

class GainBucketPolicyTest : public ::testing::TestWithParam<BucketPolicy> {};

TEST_P(GainBucketPolicyTest, InsertRemoveBasics) {
    GainBucketArray b(10, 5, false, GetParam());
    EXPECT_TRUE(b.empty());
    b.insert(3, 2);
    b.insert(7, -1);
    EXPECT_EQ(b.size(), 2);
    EXPECT_TRUE(b.contains(3));
    EXPECT_EQ(b.gain(3), 2);
    EXPECT_EQ(b.maxGain(), 2);
    b.remove(3);
    EXPECT_FALSE(b.contains(3));
    EXPECT_EQ(b.maxGain(), -1);
    EXPECT_TRUE(b.checkInvariants());
}

TEST_P(GainBucketPolicyTest, AdjustGainRebuckets) {
    GainBucketArray b(10, 5, false, GetParam());
    b.insert(1, 0);
    b.adjustGain(1, 3);
    EXPECT_EQ(b.gain(1), 3);
    b.adjustGain(1, -5);
    EXPECT_EQ(b.gain(1), -2);
    EXPECT_TRUE(b.checkInvariants());
}

TEST_P(GainBucketPolicyTest, GainsClampToRange) {
    GainBucketArray b(4, 3, false, GetParam());
    b.insert(0, 100);
    EXPECT_EQ(b.gain(0), 3);
    b.adjustGain(0, -1000);
    EXPECT_EQ(b.gain(0), -3);
    EXPECT_TRUE(b.checkInvariants());
}

TEST_P(GainBucketPolicyTest, SelectBestHonorsFeasibility) {
    GainBucketArray b(6, 5, false, GetParam());
    std::mt19937_64 rng(1);
    b.insert(0, 5);
    b.insert(1, 4);
    b.insert(2, 4);
    // Module 0 infeasible: the best feasible lives in the gain-4 bucket.
    const ModuleId v = b.selectBest([](ModuleId m) { return m != 0; }, rng);
    EXPECT_TRUE(v == 1 || v == 2);
    // Nothing feasible at all:
    EXPECT_EQ(b.selectBest([](ModuleId) { return false; }, rng), kInvalidModule);
}

TEST_P(GainBucketPolicyTest, RandomStressKeepsInvariants) {
    GainBucketArray b(50, 20, false, GetParam());
    std::mt19937_64 rng(9);
    std::set<ModuleId> present;
    for (int step = 0; step < 2000; ++step) {
        const ModuleId v = static_cast<ModuleId>(rng() % 50);
        if (present.count(v)) {
            if (rng() % 2) {
                b.remove(v);
                present.erase(v);
            } else {
                b.adjustGain(v, static_cast<Weight>(rng() % 11) - 5);
            }
        } else {
            b.insert(v, static_cast<Weight>(rng() % 41) - 20);
            present.insert(v);
        }
        if (step % 100 == 0) {
            ASSERT_TRUE(b.checkInvariants()) << "step " << step;
        }
    }
    EXPECT_TRUE(b.checkInvariants());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, GainBucketPolicyTest,
                         ::testing::Values(BucketPolicy::kLifo, BucketPolicy::kFifo,
                                           BucketPolicy::kRandom),
                         [](const ::testing::TestParamInfo<BucketPolicy>& info) {
                             return toString(info.param);
                         });

TEST(GainBucket, LifoReturnsMostRecentlyInserted) {
    GainBucketArray b(5, 3, false, BucketPolicy::kLifo);
    std::mt19937_64 rng(1);
    b.insert(0, 2);
    b.insert(1, 2);
    b.insert(2, 2);
    EXPECT_EQ(b.selectBest([](ModuleId) { return true; }, rng), 2);
}

TEST(GainBucket, FifoReturnsFirstInserted) {
    GainBucketArray b(5, 3, false, BucketPolicy::kFifo);
    std::mt19937_64 rng(1);
    b.insert(0, 2);
    b.insert(1, 2);
    b.insert(2, 2);
    EXPECT_EQ(b.selectBest([](ModuleId) { return true; }, rng), 0);
}

TEST(GainBucket, RandomSelectsUniformlyFromTopBucket) {
    GainBucketArray b(4, 3, false, BucketPolicy::kRandom);
    std::mt19937_64 rng(123);
    b.insert(0, 1);
    b.insert(1, 1);
    b.insert(2, 1);
    b.insert(3, 0); // lower bucket, must never be chosen
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 3000; ++i) {
        const ModuleId v = b.selectBest([](ModuleId) { return true; }, rng);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, 2);
        counts[v]++;
    }
    for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(GainBucket, ClipConcatenatePutsEverythingAtZeroInGainOrder) {
    GainBucketArray b(6, 5, true, BucketPolicy::kLifo);
    b.insert(0, -3);
    b.insert(1, 5);
    b.insert(2, 0);
    b.insert(3, 5);
    b.insert(4, 2);
    b.clipConcatenate();
    EXPECT_EQ(b.size(), 5);
    for (ModuleId v : {0, 1, 2, 3, 4}) EXPECT_EQ(b.gain(v), 0);
    EXPECT_EQ(b.maxGain(), 0);
    // Head of the zero bucket = previously highest gain; LIFO insertion
    // order within the old bucket means module 1 preceded 3 (1 inserted
    // first => 3 was at the head of bucket 5, so 3 comes first).
    const ModuleId first = b.head(0);
    EXPECT_EQ(first, 3);
    EXPECT_EQ(b.next(first), 1);
    EXPECT_TRUE(b.checkInvariants());
    // Subsequent deltas move modules relative to zero.
    b.adjustGain(0, 4);
    EXPECT_EQ(b.gain(0), 4);
    std::mt19937_64 rng(1);
    EXPECT_EQ(b.selectBest([](ModuleId) { return true; }, rng), 0);
}

TEST(GainBucket, DoubledRangeForClip) {
    GainBucketArray normal(4, 7, false, BucketPolicy::kLifo);
    GainBucketArray clip(4, 7, true, BucketPolicy::kLifo);
    EXPECT_EQ(normal.maxRepresentableGain(), 7);
    EXPECT_EQ(clip.maxRepresentableGain(), 14);
    EXPECT_EQ(clip.minRepresentableGain(), -14);
}

TEST(GainBucket, RejectsMisuse) {
    GainBucketArray b(3, 2, false, BucketPolicy::kLifo);
    EXPECT_THROW(b.remove(0), std::invalid_argument);
    EXPECT_THROW(b.adjustGain(0, 1), std::invalid_argument);
    b.insert(0, 0);
    EXPECT_THROW(b.insert(0, 1), std::invalid_argument);
    EXPECT_THROW(GainBucketArray(-1, 2, false, BucketPolicy::kLifo), std::invalid_argument);
}

TEST(GainBucket, HugeWeightsCapTheIndexRange) {
    // A net weight of 10^9 must not allocate a multi-gigabyte bucket
    // array: the range caps at kMaxRange and extreme gains clamp.
    GainBucketArray b(4, 1000000000, false, BucketPolicy::kLifo);
    EXPECT_EQ(b.maxRepresentableGain(), GainBucketArray::kMaxRange);
    b.insert(0, 999999999);
    b.insert(1, 5);
    EXPECT_EQ(b.gain(0), GainBucketArray::kMaxRange);
    std::mt19937_64 rng(1);
    EXPECT_EQ(b.selectBest([](ModuleId) { return true; }, rng), 0);
    EXPECT_TRUE(b.checkInvariants());
}

// Property test: a long random op sequence against a trivial map model.
// The model mirrors the documented clamping semantics — gains saturate at
// the representable range on insert and on every adjustment.
TEST_P(GainBucketPolicyTest, RandomOpsMatchNaiveModel) {
    for (const bool doubled : {false, true}) {
        SCOPED_TRACE(doubled ? "doubled" : "plain");
        constexpr ModuleId kModules = 40;
        constexpr Weight kMaxGain = 6;
        GainBucketArray b(kModules, kMaxGain, doubled, GetParam());
        const Weight range = b.maxRepresentableGain();
        ASSERT_EQ(range, doubled ? 2 * kMaxGain : kMaxGain);
        std::map<ModuleId, Weight> model; // module -> displayed (clamped) gain
        std::mt19937_64 rng(404 + (doubled ? 1 : 0));
        auto clamped = [&](Weight g) { return std::clamp(g, -range, range); };
        for (int step = 0; step < 4000; ++step) {
            const ModuleId v = static_cast<ModuleId>(rng() % kModules);
            switch (rng() % 8) {
                case 0:
                case 1:
                case 2: { // insert (gains beyond the range exercise clamping)
                    if (model.count(v)) break;
                    const Weight g = static_cast<Weight>(rng() % (6 * kMaxGain + 1)) - 3 * kMaxGain;
                    b.insert(v, g);
                    model[v] = clamped(g);
                    break;
                }
                case 3: { // remove
                    if (!model.count(v)) break;
                    b.remove(v);
                    model.erase(v);
                    break;
                }
                case 4:
                case 5: { // adjust
                    if (!model.count(v)) break;
                    const Weight d = static_cast<Weight>(rng() % 9) - 4;
                    b.adjustGain(v, d);
                    model[v] = clamped(model[v] + d);
                    break;
                }
                case 6: { // selection returns some maximal-gain module
                    if (model.empty()) break;
                    const ModuleId sel = b.selectBest([](ModuleId) { return true; }, rng);
                    ASSERT_NE(sel, kInvalidModule);
                    Weight best = model.begin()->second;
                    for (const auto& [u, g] : model) best = std::max(best, g);
                    ASSERT_EQ(b.gain(sel), best);
                    break;
                }
                default: { // rare whole-structure ops
                    if (rng() % 16 == 0) {
                        b.clipConcatenate();
                        for (auto& [u, g] : model) g = 0;
                    } else if (rng() % 32 == 0) {
                        b.clear();
                        model.clear();
                    }
                    break;
                }
            }
            ASSERT_TRUE(b.checkInvariants()) << "step " << step;
            ASSERT_EQ(b.size(), static_cast<ModuleId>(model.size())) << "step " << step;
        }
        // Final exhaustive diff.
        for (ModuleId v = 0; v < kModules; ++v) {
            const auto it = model.find(v);
            ASSERT_EQ(b.contains(v), it != model.end()) << "module " << v;
            if (it != model.end()) {
                ASSERT_EQ(b.gain(v), it->second) << "module " << v;
            }
        }
    }
}

TEST(GainBucket, MaxRangeCapsHugeGainSpans) {
    // Construction with an absurd max gain saturates the index range at
    // kMaxRange instead of allocating terabytes of buckets; gains clamp.
    GainBucketArray b(4, Weight{1} << 40, false, BucketPolicy::kLifo);
    EXPECT_EQ(b.maxRepresentableGain(), GainBucketArray::kMaxRange);
    EXPECT_EQ(b.minRepresentableGain(), -GainBucketArray::kMaxRange);
    b.insert(0, Weight{1} << 39);
    EXPECT_EQ(b.gain(0), GainBucketArray::kMaxRange);
    b.insert(1, -(Weight{1} << 39));
    EXPECT_EQ(b.gain(1), -GainBucketArray::kMaxRange);
    b.adjustGain(0, 5); // already saturated: stays pinned
    EXPECT_EQ(b.gain(0), GainBucketArray::kMaxRange);
    EXPECT_TRUE(b.checkInvariants());
}

TEST(GainBucket, ClipConcatenateOnDoubledRangeKeepsEveryModule) {
    // CLIP's doubled range plus concatenation: everything lands in bucket
    // zero, in descending prior-gain order, with nothing lost.
    GainBucketArray b(8, 4, true, BucketPolicy::kLifo);
    for (ModuleId v = 0; v < 8; ++v) b.insert(v, static_cast<Weight>(v % 5) - 2);
    b.clipConcatenate();
    EXPECT_EQ(b.size(), 8);
    EXPECT_EQ(b.maxGain(), 0);
    Weight prevGain = b.maxRepresentableGain();
    int seen = 0;
    for (ModuleId v = b.head(0); v != kInvalidModule; v = b.next(v), ++seen) {
        const Weight was = static_cast<Weight>(v % 5) - 2;
        EXPECT_LE(was, prevGain) << "concatenation must order by prior gain";
        prevGain = was;
        EXPECT_EQ(b.gain(v), 0);
    }
    EXPECT_EQ(seen, 8);
}

// The arena-bound binding (FMRefiner bump-allocates both sides' bucket
// heads/tails from one refine::Workspace arena) must be observationally
// identical to the owning form: drive both with the same random op stream
// and diff every observable after every step.
TEST_P(GainBucketPolicyTest, ArenaBoundMatchesOwnedUnderRandomOps) {
    constexpr ModuleId kModules = 32;
    constexpr Weight kMaxGain = 5;
    for (const bool doubled : {false, true}) {
        SCOPED_TRACE(doubled ? "doubled" : "plain");
        GainBucketArray owned(kModules, kMaxGain, doubled, GetParam());

        const std::size_t slots = GainBucketArray::listSlotsFor(kMaxGain, doubled);
        // Bind at a nonzero offset, as the refiner does for side 1.
        std::vector<ModuleId> arena(2 * slots, ModuleId{0});
        GainBucketArray bound;
        bound.reset(kModules, kMaxGain, doubled, GetParam(), arena, slots);

        std::mt19937_64 rng(1234 + (doubled ? 1 : 0));
        for (int step = 0; step < 3000; ++step) {
            const ModuleId v = static_cast<ModuleId>(rng() % kModules);
            switch (rng() % 6) {
                case 0:
                case 1: {
                    if (owned.contains(v)) break;
                    const Weight g = static_cast<Weight>(rng() % (4 * kMaxGain + 1)) - 2 * kMaxGain;
                    owned.insert(v, g);
                    bound.insert(v, g);
                    break;
                }
                case 2: {
                    if (!owned.contains(v)) break;
                    owned.remove(v);
                    bound.remove(v);
                    break;
                }
                case 3:
                case 4: {
                    if (!owned.contains(v)) break;
                    const Weight d = static_cast<Weight>(rng() % 7) - 3;
                    owned.adjustGain(v, d);
                    bound.adjustGain(v, d);
                    break;
                }
                default: {
                    if (rng() % 16 == 0) {
                        owned.clipConcatenate();
                        bound.clipConcatenate();
                    }
                    break;
                }
            }
            ASSERT_EQ(bound.size(), owned.size()) << "step " << step;
            ASSERT_EQ(bound.maxGain(), owned.maxGain()) << "step " << step;
            ASSERT_TRUE(bound.checkInvariants()) << "step " << step;
        }
        for (ModuleId v = 0; v < kModules; ++v) {
            ASSERT_EQ(bound.contains(v), owned.contains(v)) << "module " << v;
            if (owned.contains(v)) {
                ASSERT_EQ(bound.gain(v), owned.gain(v)) << "module " << v;
            }
        }
        // Selection walks the bound lists identically (deterministic for
        // LIFO/FIFO; the random policy draws from the same rng state).
        std::mt19937_64 selA(7), selB(7);
        auto all = [](ModuleId) { return true; };
        for (int i = 0; i < 10 && !owned.empty(); ++i) {
            const ModuleId a = owned.selectBest(all, selA);
            const ModuleId b = bound.selectBest(all, selB);
            ASSERT_EQ(b, a);
            owned.remove(a);
            bound.remove(b);
        }
    }
}

TEST(GainBucket, ArenaRebindReusesCapacityAcrossSizes) {
    // The refiner re-binds every level: same arena, different module
    // counts and gain ranges. State must fully reset on each bind.
    std::vector<ModuleId> arena;
    GainBucketArray b;
    for (const Weight maxGain : {3, 7, 2}) {
        const std::size_t slots = GainBucketArray::listSlotsFor(maxGain, false);
        if (arena.size() < slots) arena.resize(slots);
        b.reset(10, maxGain, false, BucketPolicy::kLifo, arena, 0);
        EXPECT_TRUE(b.empty());
        b.insert(4, maxGain);
        EXPECT_EQ(b.gain(4), std::min(maxGain, b.maxRepresentableGain()));
        EXPECT_TRUE(b.checkInvariants());
    }
}

TEST(GainBucket, ArenaTooSmallThrows) {
    std::vector<ModuleId> arena(4);
    GainBucketArray b;
    EXPECT_THROW(b.reset(8, 10, true, BucketPolicy::kLifo, arena, 0), std::invalid_argument);
    // Large enough arena but an offset that pushes past the end:
    const std::size_t slots = GainBucketArray::listSlotsFor(3, false);
    arena.assign(slots, ModuleId{0});
    EXPECT_THROW(b.reset(8, 3, false, BucketPolicy::kLifo, arena, 1), std::invalid_argument);
}

TEST(GainBucket, ClearEmptiesEverything) {
    GainBucketArray b(4, 3, false, BucketPolicy::kFifo);
    b.insert(0, 1);
    b.insert(1, -1);
    b.clear();
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.contains(0));
    EXPECT_TRUE(b.checkInvariants());
    b.insert(0, 2); // reusable after clear
    EXPECT_EQ(b.gain(0), 2);
}

} // namespace
} // namespace mlpart

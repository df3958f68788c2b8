// Pass-start classification kernels for the refinement hot path.
//
// The FM engines' pass-start sweeps (gain recompute, boundary detection,
// k-way frozen-gain init) are pure data-parallel classification over flat
// arrays: interleaved per-net pin counts pc[2e + side], net weights, and
// active flags. This library provides those sweeps as one portable,
// branch-free scalar kernel set the compiler is free to auto-vectorize.
// All arithmetic is exact integer math, so a sum never depends on
// accumulation order; the formulas documented below are the semantic
// definition tests/simd_test.cpp checks each kernel against.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hypergraph/types.h"

namespace mlpart::perf {

/// Kernel implementation tier. There is exactly one; the type and
/// activeTier() remain so environment records (e2ebench) keep naming it.
enum class SimdTier : int { kScalar = 0 };

[[nodiscard]] const char* toString(SimdTier t);

/// Always SimdTier::kScalar.
[[nodiscard]] SimdTier activeTier();

/// Per-net hot record for the bipartition engines, sized and aligned so
/// one 16-byte load covers everything the FM inner loops need about a
/// net: both pin counts and the weight. The engines keep these as one
/// dense array (AoS) because applyMove/undoMoves touch nets *randomly* —
/// splitting counts, weights, and active flags across three arrays costs
/// three cache misses per net where this record costs one. Inactive nets
/// (oversized, or masked by the engine) are encoded as pc[0] == -1; the
/// classification formulas below are written so that sentinel rows
/// naturally produce zero contributions and a clear cut flag, with no
/// separate active-flag load.
struct alignas(16) NetHot {
    std::int32_t pc[2]; ///< pin counts per side; pc[0] < 0 => inactive
    Weight w;           ///< net weight (immutable copy)
};
static_assert(sizeof(NetHot) == 16, "NetHot must stay one 16-byte record");

/// Bipartition pass-start net classification. For every net e in [0, m),
/// with a = (activeNet[e] != 0), p0 = pc[2e], p1 = pc[2e+1], w = weight[e]:
///
///   sideGain[e]     = a ? w * ((p0 == 1) - (p1 == 0)) : 0
///   sideGain[m + e] = a ? w * ((p1 == 1) - (p0 == 0)) : 0
///   cut[e]          = (a && p0 > 0 && p1 > 0) ? 1 : 0
///
/// i.e. the classic FM gain contribution of net e to a module on side 0
/// (plane 0) and side 1 (plane 1), as structure-of-arrays planes, plus a
/// boundary flag. The two terms cancel on a one-pin net (p = {1, 0}),
/// which no move can cut or uncut. A module's full gain is then the
/// branch-free sum of its plane entries (gatherSum). `sideGain` must hold
/// 2*m entries, `cut` m. `cut` may be nullptr when boundary flags are not
/// needed.
void classifyNets(const std::int32_t* pc, const char* activeNet, const Weight* netWeight,
                  std::size_t m, Weight* sideGain, char* cut);

/// classifyNets over the AoS NetHot array instead of the three SoA inputs.
/// Same outputs, bit for bit: for every record n = nets[e],
///
///   sideGain[e]     = n.w * ((n.pc[0] == 1) - (n.pc[1] == 0))
///   sideGain[m + e] = n.w * ((n.pc[1] == 1) - (n.pc[0] == 0))
///   cut[e]          = (n.pc[0] > 0 && n.pc[1] > 0) ? 1 : 0
///
/// The inactive sentinel (pc = {-1, -1}) satisfies none of the
/// comparisons, so sentinel rows classify to {0, 0, not-cut} without a
/// mask. `cut` may be nullptr.
void classifyNetsHot(const NetHot* nets, std::size_t m, Weight* sideGain, char* cut);

/// Sum of plane[idx[i]] for i in [0, count) — the per-module gain gather
/// over a classification plane. Exact integer math: identical for every
/// accumulation order.
[[nodiscard]] Weight gatherSum(const Weight* plane, const NetId* idx, std::size_t count);

/// K-way pass-start count classification. For every net e in [0, m) with
/// row counts[e*k .. e*k+k) and a = (activeNet[e] != 0):
///
///   cnt1Mask[e] bit j = a && counts[e*k + j] == 1
///   cnt0Mask[e] bit j = a && counts[e*k + j] == 0
///
/// The Sanchis-style frozen move gain of (v: p -> q) then needs only two
/// bit probes per incident net instead of two loads from the m*k count
/// matrix per (net, target) pair. Requires 2 <= k <= 64.
void classifyKWayCounts(const std::int32_t* counts, const char* activeNet, std::size_t m,
                        std::int32_t k, std::uint64_t* cnt1Mask, std::uint64_t* cnt0Mask);

} // namespace mlpart::perf

#include "perf/simd.h"

namespace mlpart::perf {

const char* toString(SimdTier) { return "scalar"; }

SimdTier activeTier() { return SimdTier::kScalar; }

void classifyNets(const std::int32_t* pc, const char* activeNet, const Weight* netWeight,
                  std::size_t m, Weight* sideGain, char* cut) {
    Weight* plane1 = sideGain + m;
    for (std::size_t e = 0; e < m; ++e) {
        const std::int32_t p0 = pc[2 * e];
        const std::int32_t p1 = pc[2 * e + 1];
        const Weight w = netWeight[e];
        // Branch-free: the (pX == 1) and (pY == 0) cases are mutually
        // exclusive for real nets (>= 2 pins), and inactive nets are
        // masked to zero so the gather-sum can skip the active check.
        const Weight a = activeNet[e] != 0 ? ~Weight{0} : 0;
        sideGain[e] = (w * ((p0 == 1) - (p1 == 0))) & a;
        plane1[e] = (w * ((p1 == 1) - (p0 == 0))) & a;
        if (cut != nullptr) cut[e] = static_cast<char>((p0 > 0) & (p1 > 0) & (a != 0));
    }
}

void classifyNetsHot(const NetHot* nets, std::size_t m, Weight* sideGain, char* cut) {
    Weight* plane1 = sideGain + m;
    for (std::size_t e = 0; e < m; ++e) {
        const std::int32_t p0 = nets[e].pc[0];
        const std::int32_t p1 = nets[e].pc[1];
        const Weight w = nets[e].w;
        // Branch-free; the inactive sentinel {-1, -1} matches no case.
        sideGain[e] = w * ((p0 == 1) - (p1 == 0));
        plane1[e] = w * ((p1 == 1) - (p0 == 0));
        if (cut != nullptr) cut[e] = static_cast<char>((p0 > 0) & (p1 > 0));
    }
}

Weight gatherSum(const Weight* plane, const NetId* idx, std::size_t count) {
    Weight s = 0;
    for (std::size_t i = 0; i < count; ++i) s += plane[static_cast<std::size_t>(idx[i])];
    return s;
}

void classifyKWayCounts(const std::int32_t* counts, const char* activeNet, std::size_t m,
                        std::int32_t k, std::uint64_t* cnt1Mask, std::uint64_t* cnt0Mask) {
    const std::size_t kSz = static_cast<std::size_t>(k);
    for (std::size_t e = 0; e < m; ++e) {
        std::uint64_t m1 = 0, m0 = 0;
        if (activeNet[e] != 0) {
            const std::int32_t* row = counts + e * kSz;
            for (std::size_t j = 0; j < kSz; ++j) {
                m1 |= static_cast<std::uint64_t>(row[j] == 1) << j;
                m0 |= static_cast<std::uint64_t>(row[j] == 0) << j;
            }
        }
        cnt1Mask[e] = m1;
        cnt0Mask[e] = m0;
    }
}

} // namespace mlpart::perf

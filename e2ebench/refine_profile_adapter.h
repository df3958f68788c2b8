// The one place the benchmark touches the refinement profiler
// (MLConfig::profileRefinement, refine::RefineProfile, MLLevelProfile).
// Everything else in the benchmark sees only the flat RefineTotals below,
// so replacing the profiler structs means rewriting this file alone.
#pragma once

#include <cstdint>

#include "core/multilevel.h"

namespace e2ebench {

/// One start's FM/CLIP refinement work summed over every hierarchy level.
struct RefineTotals {
    std::int64_t passes = 0;
    std::int64_t moves = 0;     ///< applied, including later rolled back
    std::int64_t rollbacks = 0; ///< moves undone
    double buildSec = 0.0;
    double selectSec = 0.0;
    double applySec = 0.0;
    double undoSec = 0.0;
};

/// Turns on per-level refinement profiling (observation only: cuts are
/// unchanged, only clock reads are added to the FM hot loops).
void enableRefineProfile(mlpart::MLConfig& cfg);

/// Sums the per-level profiles of a run made with enableRefineProfile.
[[nodiscard]] RefineTotals refineTotals(const mlpart::MLResult& r);

} // namespace e2ebench

#include "refine_profile_adapter.h"

namespace e2ebench {

void enableRefineProfile(mlpart::MLConfig& cfg) { cfg.profileRefinement = true; }

RefineTotals refineTotals(const mlpart::MLResult& r) {
    mlpart::refine::RefineProfile sum;
    for (const mlpart::MLLevelProfile& lp : r.timings.levels) sum.add(lp.refine);
    RefineTotals t;
    t.passes = sum.passes;
    t.moves = sum.moves;
    t.rollbacks = sum.rollbacks;
    t.buildSec = sum.bucketBuildSec;
    t.selectSec = sum.selectSec;
    t.applySec = sum.applySec;
    t.undoSec = sum.rollbackSec;
    return t;
}

} // namespace e2ebench

// Mutable builder producing immutable Hypergraph instances.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "hypergraph/types.h"

namespace mlpart {

/// Accumulates modules and nets, then constructs a validated Hypergraph.
///
/// Usage:
///   HypergraphBuilder b(numModules);
///   b.addNet({0, 3, 7});
///   Hypergraph h = std::move(b).build();
///
/// Validation performed by build():
///  - pin ids in range, duplicates within a net removed,
///  - nets with fewer than two distinct pins dropped (Definition 1 keeps
///    only nets that still span more than one cluster),
///  - areas >= 0, weights >= 1 (throws std::invalid_argument otherwise).
class HypergraphBuilder {
public:
    /// Creates a builder for `numModules` modules, all with `defaultArea`.
    explicit HypergraphBuilder(ModuleId numModules, Area defaultArea = 1);

    /// Adds a net over `pins` with weight `w`. Returns the prospective net
    /// id (final ids can shift down if earlier nets are dropped as
    /// degenerate during build()).
    NetId addNet(std::span<const ModuleId> pins, Weight w = 1);
    NetId addNet(std::initializer_list<ModuleId> pins, Weight w = 1);

    /// Sets the area of module `v`.
    void setArea(ModuleId v, Area a);
    /// Sets an optional display name for module `v`.
    void setModuleName(ModuleId v, std::string name);

    /// When true (default), identical duplicate nets are merged and their
    /// weights summed — this keeps coarsened netlists small while preserving
    /// all cut values exactly.
    void setMergeParallelNets(bool merge) { mergeParallel_ = merge; }

    [[nodiscard]] ModuleId numModules() const { return numModules_; }
    [[nodiscard]] NetId numNetsAdded() const { return static_cast<NetId>(netOffsets_.size() - 1); }

    /// Validates and constructs the immutable hypergraph. The builder is
    /// consumed (rvalue-qualified): nets are normalized in place and the
    /// pin arrays moved, not copied. Surviving nets keep their input order;
    /// a parallel net merges into its first occurrence. The merge uses one
    /// flat open-addressing table, with no allocation per net.
    [[nodiscard]] Hypergraph build() &&;

private:
    ModuleId numModules_ = 0;
    std::vector<std::int64_t> netOffsets_{0};
    std::vector<ModuleId> netPins_;
    std::vector<Weight> netWeights_;
    std::vector<Area> areas_;
    std::vector<std::string> names_;
    bool mergeParallel_ = true;
};

} // namespace mlpart

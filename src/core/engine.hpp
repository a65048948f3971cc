#pragma once
// core::EvaluatorFactory — per-run objective evaluators for the SA backends.
//
// The paper's headline numbers (Table 1 success rate, Fig. 10
// time-to-solution) aggregate many INDEPENDENT annealing runs, each on its
// own evaluator instance. A factory holds one game's immutable state and
// creates a fresh, thread-confined instance per run; SaPreparedJob (see
// backend.hpp) asks it for instance key 2r for run r. Keys are counter-
// derived rather than sequential, so a run's evaluator — its sampled device
// variability and noise stream — does not depend on which service worker
// creates it, and reports are bit-identical for any worker count.

#include <cstdint>
#include <memory>
#include <vector>

#include "chip/tiled_two_phase.hpp"
#include "core/anneal.hpp"
#include "core/sample.hpp"
#include "core/two_phase.hpp"
#include "util/rng.hpp"

namespace cnash::core {

/// Creates fresh, thread-confined evaluator instances for the service's
/// workers. `instance_key` addresses the instance's RNG stream
/// deterministically — the same key always yields an identically-behaving
/// instance (same sampled device variability, same noise stream).
class EvaluatorFactory {
 public:
  virtual ~EvaluatorFactory() = default;
  virtual const game::BimatrixGame& game() const = 0;
  virtual std::unique_ptr<ObjectiveEvaluator> create(
      std::uint64_t instance_key) const = 0;
};

/// Exact software objective (ablation backend). Instances are stateless
/// w.r.t. the key — every instance evaluates Eq. 9 identically — and share
/// one read-only payoff block (game + transposed copies) across all
/// instances of the factory's lifetime, replicas of an ensemble included.
class ExactEvaluatorFactory final : public EvaluatorFactory {
 public:
  explicit ExactEvaluatorFactory(game::BimatrixGame game);
  const game::BimatrixGame& game() const override { return shared_->game; }
  std::unique_ptr<ObjectiveEvaluator> create(std::uint64_t) const override;

 private:
  std::shared_ptr<const ExactMaxQubo::Shared> shared_;
};

/// Full hardware model: each instance programs its own chip — bi-crossbar
/// tiles, WTA trees, ADCs (chip::TiledTwoPhaseEvaluator) — with device
/// variability sampled from the keyed split of `device_rng`: the
/// Monte-Carlo-over-chips view of the architecture. Both constructors throw
/// std::invalid_argument when the game cannot be mapped (see
/// chip::mapped_geometry).
class HardwareEvaluatorFactory final : public EvaluatorFactory {
 public:
  /// The "hardware-sa" chip: single_tile_chip(), one tile holding each
  /// whole array — the single-array datapath of Fig. 6.
  HardwareEvaluatorFactory(game::BimatrixGame game, std::uint32_t intervals,
                           TwoPhaseConfig config, util::Rng device_rng);
  /// A chosen tile grid ("hardware-sa-tiled"). `fault` (default disabled)
  /// is re-keyed per instance — create(key) rolls tile failures under
  /// fault.for_instance(key) — so the same run fails the same way on every
  /// retry/worker, independently of the other runs.
  HardwareEvaluatorFactory(game::BimatrixGame game, std::uint32_t intervals,
                           TwoPhaseConfig config, chip::ChipConfig chip,
                           util::Rng device_rng, util::FaultPlan fault = {});
  const game::BimatrixGame& game() const override { return game_; }
  std::uint32_t intervals() const { return intervals_; }
  /// Mapped geometry of both arrays (the latency models' input).
  const chip::ArrayGeometry& geometry() const { return geometry_; }
  std::unique_ptr<ObjectiveEvaluator> create(std::uint64_t key) const override;
  /// Typed variant for tile-grid / WTA / ADC introspection.
  std::unique_ptr<chip::TiledTwoPhaseEvaluator> create_hardware(
      std::uint64_t key) const;

 private:
  game::BimatrixGame game_;
  std::uint32_t intervals_;
  TwoPhaseConfig config_;
  chip::ArrayGeometry geometry_;
  chip::ChipConfig chip_;
  util::Rng device_rng_;
  util::FaultPlan fault_;
};

}  // namespace cnash::core

#pragma once
// core::SolverEngine — dispatch of independent two-phase SA runs, one
// service unit and one evaluator instance per run.
//
// The paper's headline numbers (Table 1 success rate, Fig. 10
// time-to-solution) aggregate thousands of INDEPENDENT annealing runs, so the
// engine treats "one run" as the unit of work. Since the SolverService
// refactor the engine owns no threads of its own: each run() call becomes
// one job on the process-wide SolverService pool (see service.hpp), scheduled
// run-granularly alongside any other in-flight jobs. Every run r derives
//   * its SA stream            from  Rng(seed).split(2r + 1)
//   * its evaluator instance   from  EvaluatorFactory::create(2r)
// Because both are keyed (counter-derived) rather than sequential, the
// outcome vector is bit-identical for ANY worker count — a serial sweep,
// 2 workers and 8 workers all reproduce the same per-run streams no matter
// which worker picks up which run. Evaluator instances are created per run
// and never shared, so the mutable hardware model (device variability, ADC
// noise draws) stays thread-confined.

#include <cstdint>
#include <memory>
#include <vector>

#include "chip/tiled_two_phase.hpp"
#include "core/anneal.hpp"
#include "core/sample.hpp"
#include "core/two_phase.hpp"
#include "util/rng.hpp"

namespace cnash::core {

/// Stream key reserved for probe/inspection evaluator instances. Run r uses
/// keys 2r and 2r+1, so this largest odd key could only collide with run
/// index (2^64 - 2) / 2 — unreachable in practice.
inline constexpr std::uint64_t kProbeInstanceKey = ~0ULL;

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

struct EngineOptions {
  std::uint32_t intervals = 12;  // strategy quantization I
  SaOptions sa;
  /// Report the best profile seen during a run instead of the final accepted
  /// one (Alg. 1 reports the final recorded pair).
  bool report_best = false;
  std::uint64_t seed = 0xC0FFEE;
  /// Cap on this engine's runs simultaneously in flight on the shared
  /// SolverService pool; 0 = no cap (one run per pool worker). Any value
  /// produces the same outcomes — only wall-clock changes.
  std::size_t threads = 0;
};

class SolverEngine {
 public:
  SolverEngine(std::shared_ptr<const EvaluatorFactory> factory,
               EngineOptions options);

  const EvaluatorFactory& factory() const { return *factory_; }
  const EngineOptions& options() const { return options_; }

  /// `num_runs` independent SA runs, ordered by run index. The result is
  /// bit-identical for any `threads` setting given the same seed.
  /// Consecutive calls continue the run-index sequence, so run(5) twice
  /// equals run(10).
  std::vector<SolveSample> run(std::size_t num_runs);

  /// The next single run of the sequence.
  SolveSample solve_once();

  /// Rewind the run-index counter: the next batch replays from run 0.
  void rewind() { next_run_ = 0; }

 private:
  std::shared_ptr<const EvaluatorFactory> factory_;
  EngineOptions options_;
  std::uint64_t next_run_ = 0;
};

}  // namespace cnash::core

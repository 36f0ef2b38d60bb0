#ifndef UBE_OPTIMIZE_REPAIR_H_
#define UBE_OPTIMIZE_REPAIR_H_

#include <cstdint>
#include <vector>

#include "obs/telemetry.h"
#include "optimize/evaluator.h"
#include "optimize/problem.h"
#include "util/timer.h"

namespace ube {

namespace obs {
class ObsContext;
}  // namespace obs

/// Knobs for the bounded incumbent-repair search. Deliberately a fraction
/// of a full solve's budget: repair exists so that per-event maintenance is
/// cheap, with escalation to a full re-solve as the quality backstop
/// (Engine::RunContinuous owns that policy).
struct RepairOptions {
  uint64_t seed = 42;
  /// Steepest-ascent iterations from the damaged incumbent.
  int max_iterations = 40;
  /// Hard cap on computed evaluations (<= 0 disables).
  int64_t eval_budget = 2'000;
  /// Moves sampled per iteration (0 = auto, same rule as local search).
  int candidate_moves = 0;
  /// QualityBatch threads (1 = inline); the result is identical for any
  /// value, per the evaluator's bit-identity contract.
  int num_threads = 1;
  /// Injectable clock (tests); null = real steady clock.
  const Clock* clock = nullptr;
  /// Optional observability context (solve/repair span, solver metrics).
  obs::ObsContext* obs = nullptr;
  /// Cross-evaluator quality cache (optimize/evaluator.h). Not owned; must
  /// outlive the repair. Only Engine::RepairSeed reads it, attaching it to
  /// the repair's evaluator so a later solve of the same spec over the same
  /// store finds the repair's values. Null keeps the evaluator's own cache.
  SharedQualityCache* shared_cache = nullptr;
};

/// Outcome of one repair attempt.
struct RepairResult {
  /// False when sanitizing left nothing to seed the search with (the whole
  /// incumbent was evicted) — the caller must fall back to a full solve;
  /// `solution` is meaningless then.
  bool seeded = false;
  /// Incumbent members evicted as dead / banned / out of range.
  int evicted = 0;
  /// Q of the sanitized seed before any search (diagnostics: how much the
  /// churn batch actually hurt).
  double seed_quality = 0.0;
  /// The repaired incumbent (solver_name "repair" in its stats).
  Solution solution;
};

/// Knobs of the adaptive repair-budget controller (continuous mode). The
/// controller replaces RepairOptions::eval_budget with a per-batch value it
/// steers inside [min_eval_budget, max_eval_budget] from recent repair
/// telemetry; disabling it restores the fixed budget exactly.
struct AdaptiveRepairOptions {
  bool enabled = true;
  /// Bounds of the per-batch evaluation budget. The base budget
  /// (RepairOptions::eval_budget) is clamped into this range up front.
  int64_t min_eval_budget = 256;
  int64_t max_eval_budget = 16'384;
  /// Consecutive cheap successes (repair converged using at most half the
  /// budget) before the budget shrinks by a quarter.
  int shrink_after = 3;
  /// Recent batches consulted for escalation pressure; when at least half
  /// of them escalated on quality, the budget pins at max_eval_budget.
  int window = 8;
};

/// Sizes the repair budget per churn batch from recent repair outcomes,
/// recorded into a PR-5 TelemetryRing (one IterationSample per batch:
/// evaluations = what the repair spent, stall = whether it escalated).
///
/// Policy, all deterministic integer arithmetic so continuous runs replay
/// bit-identically for any thread count:
///  - a quality-fraction escalation doubles the budget (the repair was
///    genuinely too small), capped at max;
///  - `shrink_after` consecutive cheap successes shrink it to 3/4, floored
///    at min — converged repairs should not hoard budget;
///  - an incumbent wipeout leaves it unchanged (no budget would have
///    helped; the full solve was structural);
///  - sustained escalation pressure (>= half the trailing `window`) pins
///    the budget at max until the pressure clears.
class RepairBudgetController {
 public:
  RepairBudgetController(int64_t base_budget,
                         const AdaptiveRepairOptions& options);

  /// The budget the next repair should run with.
  int64_t budget() const { return budget_; }

  /// Report one batch's outcome: evaluations the repair spent, whether it
  /// produced a seeded result, whether the result escalated on the quality
  /// fraction, and whether the whole incumbent was evicted.
  void Record(int64_t evaluations_used, bool repaired, bool quality_escalated,
              bool wipeout);

  const obs::TelemetryRing& ring() const { return ring_; }

 private:
  AdaptiveRepairOptions options_;
  int64_t budget_;
  int cheap_streak_ = 0;
  int64_t batches_ = 0;
  obs::TelemetryRing ring_;
};

/// Repairs a damaged incumbent against the evaluator's current spec and
/// universe: evicts banned/out-of-range members, re-adds newly required
/// sources, then runs a bounded steepest-ascent local search seeded from
/// what survived (adds, drops and swaps — so newly appeared sources are
/// adoptable). Deterministic for a fixed seed and any thread count.
///
/// The evaluator must be built over the *current* (post-churn) universe;
/// RepairIncumbent calls BeginRun, so reported evaluation counts are
/// per-repair and cache state never leaks across batches.
RepairResult RepairIncumbent(const CandidateEvaluator& evaluator,
                             const std::vector<SourceId>& incumbent,
                             const RepairOptions& options);

}  // namespace ube

#endif  // UBE_OPTIMIZE_REPAIR_H_

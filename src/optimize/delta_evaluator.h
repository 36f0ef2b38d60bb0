#ifndef UBE_OPTIMIZE_DELTA_EVALUATOR_H_
#define UBE_OPTIMIZE_DELTA_EVALUATOR_H_

#include <span>
#include <vector>

#include "optimize/evaluator.h"
#include "optimize/search_state.h"
#include "util/thread_pool.h"

namespace ube {

/// Incremental union for the solvers' single-move neighborhoods.
///
/// Every Q(S) comes from the wrapped evaluator's Score (see
/// CandidateEvaluator), given the union estimate |∪S|. QualityBatch takes
/// that union from scratch, |S| word ORs per candidate. A single-flip
/// neighbor shares almost all of that work with its base candidate, so this
/// class keeps prefix/suffix OR arrays over the base's admitted sketches and
/// takes a flip's union in two word-wise ORs. Removal re-ORs from the
/// per-source sketches (OR has no inverse); a base change (commit or restart
/// reset) rebases the arrays, the only "full" recomputation the steady state
/// does. Exact signatures have no words to OR, so on such a universe, and
/// when disabled, ScoreNeighborhood forwards to QualityBatch.
///
/// Bit-identity contract: every score this class returns is bit-identical to
/// QualityBatch's for the same candidate, for any thread count: sketch-word
/// ORs are exact and order-free, both paths share Score, and the estimate is
/// the same function (PcsaSketch::EstimateFromBitmaps) on identical words.
/// The property suite in tests/test_property_delta.cc enforces this per QEF
/// and for Q(S) on random flip sequences, for matching and data-only models.
///
/// Cache and counter parity: the flip union is only the per-miss
/// computation handed to the evaluator's batch loop
/// (CandidateEvaluator::MemoizedBatch), so a neighborhood probes and
/// populates the same quality cache, follows the same pool rule and bumps
/// num_evaluations / num_cache_hits / the eval.* metrics exactly as
/// QualityBatch would.
///
/// Not thread safe: one instance per Solve call, driven from the solver's
/// thread only; the misses it hands the pool only read its base state.
class DeltaEvaluator {
 public:
  /// `evaluator` must outlive this object. `enable` = false forwards every
  /// neighborhood to the evaluator's QualityBatch (the baseline the benches
  /// time the incremental union against).
  DeltaEvaluator(const CandidateEvaluator& evaluator, bool enable);

  DeltaEvaluator(const DeltaEvaluator&) = delete;
  DeltaEvaluator& operator=(const DeltaEvaluator&) = delete;

  /// True when delta scoring is in effect, i.e. it was enabled.
  bool active() const { return active_; }

  /// Scores the single-move neighborhood of `base`: candidates[i] must be
  /// base with moves[i] applied. Rebases the running sketch unions when
  /// `base` differs from the previous call's base, then takes each flip's
  /// union in O(sketch words) instead of O(|S| · sketch words).
  std::vector<double> ScoreNeighborhood(
      const std::vector<SourceId>& base,
      std::span<const SearchState::Move> moves,
      std::span<const std::vector<SourceId>> candidates, ThreadPool* pool);

 private:
  /// |∪ base±move| via the prefix/suffix OR arrays (uniform-PCSA only).
  double UnionForMove(const SearchState::Move& move) const;
  /// Rebuilds the admitted-member prefix/suffix unions for a new base.
  void Rebase(const std::vector<SourceId>& base);

  const CandidateEvaluator& evaluator_;
  bool active_;

  // Neighborhood base state (uniform-PCSA tables only).
  std::vector<SourceId> base_;
  std::vector<SourceId> base_admitted_;  // admitted members, ascending
  std::vector<int> admitted_index_;      // source id → index above, or -1
  std::vector<uint32_t> prefix_;         // (k+1) blocks of sketch words
  std::vector<uint32_t> suffix_;         // (k+1) blocks of sketch words
};

}  // namespace ube

#endif  // UBE_OPTIMIZE_DELTA_EVALUATOR_H_

#ifndef UBE_OPTIMIZE_DELTA_EVALUATOR_H_
#define UBE_OPTIMIZE_DELTA_EVALUATOR_H_

#include <span>
#include <vector>

#include "optimize/evaluator.h"
#include "optimize/search_state.h"
#include "qef/quality_model.h"
#include "util/thread_pool.h"

namespace ube {

/// Incremental candidate scoring for the solvers' neighborhood loops.
///
/// Every Q(S) comes from the wrapped evaluator's Score (see
/// CandidateEvaluator), given the union estimate |∪S|. The full path takes
/// that union from scratch, |S| word ORs per candidate. A single-flip
/// neighbor shares almost all of that work with its base candidate, so this
/// class keeps prefix/suffix OR arrays over the base's admitted sketches and
/// takes a flip's union in two word-wise ORs. Removal re-ORs from the
/// per-source sketches (OR has no inverse); a base change (commit or restart
/// reset) rebases the arrays, the only "full" recomputation the steady state
/// does. Exact signatures have no words to OR, so their union is always
/// taken from scratch.
///
/// Bit-identity contract: every score this class returns is bit-identical to
/// the full path for the same candidate, for any thread count: sketch-word
/// ORs are exact and order-free, both paths share Score, and the estimate is
/// the same function (PcsaSketch::EstimateFromBitmaps) on identical words.
/// The property suite in tests/test_property_delta.cc enforces this per QEF
/// and for Q(S) on random flip sequences, for matching and data-only models.
///
/// Pool rule: the misses of a batch run on `pool` when the model needs
/// Match(S), which dominates their cost, and inline otherwise, where each
/// miss is O(sketch words + |S|). Either way probing and publishing stay
/// sequential, so results do not depend on the thread count.
///
/// Cache and counter parity: the delta path runs the wrapped evaluator's
/// own memo path and batch loop (CandidateEvaluator::Memoized and
/// MemoizedBatch), passing only its per-miss computation, so it probes and
/// populates the same quality cache (cross-restart reuse keeps working) and
/// bumps num_evaluations / num_cache_hits / the eval.* metrics with
/// identical semantics: eval budgets (SolverOptions::max_evaluations) stop
/// at exactly the same point with delta on or off.
///
/// Not thread safe: one instance per Solve call, driven from the solver's
/// thread only; the misses it hands the pool only read its base state.
class DeltaEvaluator {
 public:
  /// `evaluator` must outlive this object. `enable` = false forwards every
  /// call to the evaluator's Quality/QualityBatch (the reference path the
  /// oracles compare against, and the --delta off axis of the benches).
  DeltaEvaluator(const CandidateEvaluator& evaluator, bool enable);

  DeltaEvaluator(const DeltaEvaluator&) = delete;
  DeltaEvaluator& operator=(const DeltaEvaluator&) = delete;

  /// True when delta scoring is in effect, i.e. it was enabled.
  bool active() const { return active_; }

  /// Q(S) through the evaluator's memo path, computed by the delta path on
  /// a miss — the delta counterpart of CandidateEvaluator::Quality.
  double Quality(const std::vector<SourceId>& candidate);

  /// Scores arbitrary candidates (PSO positions, greedy extensions) in
  /// input order with QualityBatch's cache/dedup/counter semantics. Misses
  /// run on `pool` per the pool rule.
  std::vector<double> ScoreCandidates(
      std::span<const std::vector<SourceId>> candidates, ThreadPool* pool);

  /// Scores the single-move neighborhood of `base`: candidates[i] must be
  /// base with moves[i] applied. Rebases the running sketch unions when
  /// `base` differs from the previous call's base, then takes each flip's
  /// union in O(sketch words) instead of O(|S| · sketch words).
  std::vector<double> ScoreNeighborhood(
      const std::vector<SourceId>& base,
      std::span<const SearchState::Move> moves,
      std::span<const std::vector<SourceId>> candidates, ThreadPool* pool);

  /// Uncached computation of the full breakdown (per-QEF scores and Q(S)).
  /// Counts as a computed evaluation, exactly like
  /// CandidateEvaluator::Evaluate; never reads or writes the cache. This is
  /// the probe the differential oracle tests compare against the table-free
  /// ground truth.
  QualityBreakdown Compute(const std::vector<SourceId>& candidate);

 private:
  /// The per-miss computation: Q(S) with the union taken via `move` against
  /// the current base when given on the uniform-PCSA table, from scratch
  /// otherwise.
  double Miss(const std::vector<SourceId>& candidate,
              const SearchState::Move* move) const;
  /// |∪ base±move| via the prefix/suffix OR arrays (uniform-PCSA only).
  double UnionForMove(const SearchState::Move& move) const;
  /// The pool rule (see the class comment).
  ThreadPool* MissPool(ThreadPool* pool) const {
    return evaluator_.needs_match_ ? pool : nullptr;
  }

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

#ifndef UBE_OPTIMIZE_DELTA_EVALUATOR_H_
#define UBE_OPTIMIZE_DELTA_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "optimize/evaluator.h"
#include "optimize/search_state.h"
#include "qef/quality_model.h"
#include "util/thread_pool.h"

namespace ube {

/// Incremental candidate scoring for the solvers' neighborhood loops.
///
/// The full path (CandidateEvaluator::Evaluate) rebuilds per-candidate state
/// on every call: it re-applies the degradation policy to each member and
/// clones and merges distinct signatures into a fresh union. A single-flip
/// neighbor shares almost all of that work with its base candidate.
/// DeltaEvaluator applies the policy once per source at construction
/// (per-source weights and cardinality contributions), borrows the wrapped
/// evaluator's universe tables — the QEF scorer tables, the effective
/// weights and the policy-adjusted denominators — and scores through the
/// same weighted sum (QualityModel::Evaluate with scorers). It maintains
/// running per-source PCSA sketch unions for the current base candidate
/// (prefix/suffix OR arrays), so a flip's union is two word-wise ORs
/// instead of |S| clones and merges. Removal re-ORs from the per-source
/// sketches (OR has no inverse); a base change (commit or restart reset)
/// rebases the arrays, which is the only "full" recomputation the steady
/// state ever does.
///
/// Bit-identity contract: every score this class returns is bit-identical to
/// the full path for the same candidate, for any thread count. That holds
/// because (a) integer aggregates and sketch-word ORs are exact and
/// order-free, (b) order-sensitive double sums are re-accumulated per
/// evaluation from precomputed per-source terms in the same ascending-id
/// order MakeContext uses — identical operands in identical order give
/// identical bits — and (c) the PCSA estimate is computed by the same
/// function (PcsaSketch::EstimateFromBitmaps) on identical words. The
/// property suite in tests/test_property_delta.cc enforces this per QEF and
/// for the composite Q(S) on random flip sequences.
///
/// Fallback rule: the delta path is active only when `enable` is set AND
/// every QEF of the model has a scorer table. Models with a matching
/// (or schema-coverage, or user-lambda) QEF need Match(S) — which is not
/// incrementally maintainable — so for them every method forwards verbatim
/// to the wrapped CandidateEvaluator and behavior is unchanged, including
/// the parallel batch path.
///
/// Cache and counter parity: the delta path runs the wrapped evaluator's
/// own memo path and batch loop (CandidateEvaluator::Memoized and
/// MemoizedBatch), passing only its per-miss computation, so it probes and
/// populates the same quality cache (cross-restart reuse keeps working) and
/// bumps num_evaluations / num_cache_hits / the eval.* metrics with
/// identical semantics: eval budgets (SolverOptions::max_evaluations) stop
/// at exactly the same point with delta on or off.
///
/// Not thread safe: one instance per Solve call, used from the solver's
/// driving thread only (delta computes are cheap enough that misses are
/// computed inline; thread-count invariance is then trivial).
class DeltaEvaluator {
 public:
  /// `evaluator` must outlive this object. `enable` = false forces
  /// forwarding mode (the --delta off axis in benches and tests).
  DeltaEvaluator(const CandidateEvaluator& evaluator, bool enable);

  DeltaEvaluator(DeltaEvaluator&&) = default;
  DeltaEvaluator(const DeltaEvaluator&) = delete;
  DeltaEvaluator& operator=(const DeltaEvaluator&) = delete;

  /// True when delta scoring is in effect (enabled and every QEF has a
  /// scorer table); false means every call forwards to the full evaluator.
  bool active() const { return active_; }

  const CandidateEvaluator& evaluator() const { return *evaluator_; }

  /// Q(S) through the evaluator's memo path, computed by the delta path on
  /// a miss — the delta counterpart of CandidateEvaluator::Quality.
  double Quality(const std::vector<SourceId>& candidate);

  /// Scores arbitrary candidates (PSO positions, greedy extensions) in
  /// input order with QualityBatch's cache/dedup/counter semantics. `pool`
  /// is used only in forwarding mode.
  std::vector<double> ScoreCandidates(
      std::span<const std::vector<SourceId>> candidates, ThreadPool* pool);

  /// Scores the single-move neighborhood of `base`: candidates[i] must be
  /// base with moves[i] applied. Rebases the running sketch unions when
  /// `base` differs from the previous call's base, then scores each flip in
  /// O(sketch words + |S|) instead of a full evaluation.
  std::vector<double> ScoreNeighborhood(
      const std::vector<SourceId>& base,
      std::span<const SearchState::Move> moves,
      std::span<const std::vector<SourceId>> candidates, ThreadPool* pool);

  /// Uncached delta computation of the full breakdown (per-QEF scores and
  /// Q(S)). Counts as a computed evaluation, exactly like
  /// CandidateEvaluator::Evaluate; never reads or writes the cache. This is
  /// the probe the differential oracle tests compare against the full
  /// path's breakdown. Requires active().
  QualityBreakdown Compute(const std::vector<SourceId>& candidate);

 private:
  struct SourceEntry {
    int64_t cardinality = 0;
    /// Policy weight × cardinality — the term MakeContext adds to
    /// effective_cardinality (and, when admitted, cooperating_cardinality).
    double contribution = 0.0;
    /// Signature admitted by the policy and present on the source.
    bool admitted = false;
    bool degraded = false;
    const DistinctSignature* signature = nullptr;
    /// Raw sketch words when every admitted signature is a same-width
    /// PcsaSignature (the fast union path); null otherwise.
    const std::vector<uint32_t>* pcsa_words = nullptr;
  };

  /// The per-miss computation: counts one evaluation and scores
  /// `candidate`, taking its union via `move` against the current base when
  /// given on the uniform-PCSA path, from scratch otherwise.
  QualityBreakdown Score(const std::vector<SourceId>& candidate,
                         const SearchState::Move* move);

  /// Fills every EvalContext aggregate except union_estimate (exact int
  /// sums, plus double sums re-accumulated in candidate order).
  void FillScalars(const std::vector<SourceId>& candidate,
                   EvalContext* ctx) const;
  /// |∪S| over admitted members, from scratch (word ORs into scratch_ on
  /// the uniform-PCSA path, Clone+MergeFrom otherwise — both replicate
  /// MakeContext exactly).
  double UnionFromScratch(const std::vector<SourceId>& candidate);
  /// |∪ base±move| via the prefix/suffix OR arrays (uniform-PCSA only).
  double UnionForMove(const SearchState::Move& move);

  /// Rebuilds the admitted-member prefix/suffix unions for a new base.
  void Rebase(const std::vector<SourceId>& base);

  const CandidateEvaluator* evaluator_;
  bool active_ = false;

  std::vector<SourceEntry> entries_;

  /// True when every admitted signature is a PcsaSignature of one width.
  bool pcsa_uniform_ = false;
  size_t words_ = 0;

  // Neighborhood base state (valid when has_base_).
  bool has_base_ = false;
  std::vector<SourceId> base_;
  std::vector<SourceId> base_admitted_;  // admitted members, ascending
  std::vector<int> admitted_index_;      // source id → index above, or -1
  std::vector<uint32_t> prefix_;         // (k+1) blocks of words_
  std::vector<uint32_t> suffix_;         // (k+1) blocks of words_
  std::vector<uint32_t> scratch_;
};

}  // namespace ube

#endif  // UBE_OPTIMIZE_DELTA_EVALUATOR_H_

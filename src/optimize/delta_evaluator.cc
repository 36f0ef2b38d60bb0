#include "optimize/delta_evaluator.h"

#include "sketch/pcsa.h"
#include "util/check.h"

namespace ube {

DeltaEvaluator::DeltaEvaluator(const CandidateEvaluator& evaluator,
                               bool enable)
    : evaluator_(evaluator), active_(enable) {
  if (active_ && evaluator.pcsa_uniform_) {
    admitted_index_.assign(evaluator.sources_.size(), -1);
  }
}

void DeltaEvaluator::Rebase(const std::vector<SourceId>& base) {
  base_ = base;
  const std::vector<CandidateEvaluator::SourceEntry>& entries =
      evaluator_.sources_;
  const size_t words = evaluator_.words_;
  for (SourceId s : base_admitted_) admitted_index_[static_cast<size_t>(s)] = -1;
  base_admitted_.clear();
  for (SourceId s : base) {
    if (!entries[static_cast<size_t>(s)].admitted) continue;
    admitted_index_[static_cast<size_t>(s)] =
        static_cast<int>(base_admitted_.size());
    base_admitted_.push_back(s);
  }
  const size_t k = base_admitted_.size();
  // prefix[i] = ∪ sketches of the first i admitted members; suffix[i] = ∪ of
  // members i..k-1. Removing admitted member j is then
  // prefix[j] | suffix[j+1] — the re-OR-on-remove the union's lack of an
  // inverse requires, paid once per base instead of once per flip.
  prefix_.assign((k + 1) * words, 0);
  suffix_.assign((k + 1) * words, 0);
  for (size_t i = 0; i < k; ++i) {
    const std::vector<uint32_t>& member =
        *entries[static_cast<size_t>(base_admitted_[i])].pcsa_words;
    uint32_t* prev = prefix_.data() + i * words;
    uint32_t* next = prefix_.data() + (i + 1) * words;
    for (size_t w = 0; w < words; ++w) next[w] = prev[w] | member[w];
  }
  for (size_t i = k; i-- > 0;) {
    const std::vector<uint32_t>& member =
        *entries[static_cast<size_t>(base_admitted_[i])].pcsa_words;
    uint32_t* prev = suffix_.data() + (i + 1) * words;
    uint32_t* next = suffix_.data() + i * words;
    for (size_t w = 0; w < words; ++w) next[w] = prev[w] | member[w];
  }
}

double DeltaEvaluator::UnionForMove(const SearchState::Move& move) const {
  const std::vector<CandidateEvaluator::SourceEntry>& entries =
      evaluator_.sources_;
  const size_t words = evaluator_.words_;
  const size_t k = base_admitted_.size();
  int admitted = static_cast<int>(k);

  int removed_at = -1;
  if (move.kind != SearchState::Move::Kind::kAdd) {
    removed_at = admitted_index_[static_cast<size_t>(move.out)];
    if (removed_at >= 0) --admitted;
  }
  const std::vector<uint32_t>* added = nullptr;
  if (move.kind != SearchState::Move::Kind::kDrop &&
      entries[static_cast<size_t>(move.in)].admitted) {
    added = entries[static_cast<size_t>(move.in)].pcsa_words;
    ++admitted;
  }
  if (admitted <= 0) return 0.0;

  std::vector<uint32_t>& scratch = CandidateEvaluator::UnionScratch();
  scratch.resize(words);
  if (removed_at >= 0) {
    const uint32_t* lo = prefix_.data() + static_cast<size_t>(removed_at) * words;
    const uint32_t* hi =
        suffix_.data() + (static_cast<size_t>(removed_at) + 1) * words;
    for (size_t w = 0; w < words; ++w) scratch[w] = lo[w] | hi[w];
  } else {
    const uint32_t* all = prefix_.data() + k * words;
    for (size_t w = 0; w < words; ++w) scratch[w] = all[w];
  }
  if (added != nullptr) {
    for (size_t w = 0; w < words; ++w) scratch[w] |= (*added)[w];
  }
  return PcsaSketch::EstimateFromBitmaps(scratch);
}

std::vector<double> DeltaEvaluator::ScoreNeighborhood(
    const std::vector<SourceId>& base, std::span<const SearchState::Move> moves,
    std::span<const std::vector<SourceId>> candidates, ThreadPool* pool) {
  UBE_DCHECK(moves.size() == candidates.size(),
             "moves and candidates must be parallel");
  if (!active_ || !evaluator_.pcsa_uniform_) {
    return evaluator_.QualityBatch(candidates, pool);
  }
  // A candidate is never empty, so the initially empty base_ never matches.
  if (base_ != base) Rebase(base);
  return evaluator_.MemoizedBatch(candidates, pool, [&](size_t i) {
    return evaluator_.Score(candidates[i], UnionForMove(moves[i]), nullptr)
        .overall;
  });
}

}  // namespace ube

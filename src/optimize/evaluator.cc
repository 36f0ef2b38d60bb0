#include "optimize/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <typeinfo>

#include "obs/obs.h"
#include "sketch/pcsa.h"
#include "util/check.h"
#include "util/rng.h"

namespace ube {

namespace {

std::vector<SourceId> SortedUnique(std::vector<SourceId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<SourceId> ComputeRequired(const ProblemSpec& spec) {
  std::vector<SourceId> required = spec.source_constraints;
  for (const GlobalAttribute& g : spec.ga_constraints) {
    for (const AttributeId& id : g.attributes()) required.push_back(id.source);
  }
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()),
                 required.end());
  return required;
}

/// Digests everything a quality value depends on into 64 bits: the spec's
/// matching knobs and constraints, the effective weights (bit patterns, so
/// an overlay differing in the last ulp still separates), the degradation
/// policy, the model's QEF lineup, the universe extent and the caller's
/// cache epoch. Two evaluators agreeing on all of these return identical
/// qualities for any candidate — the invariant that makes sharing a cache
/// across sessions safe.
uint64_t ComputeSpecFingerprint(const Universe& universe,
                                const QualityModel& model,
                                const ProblemSpec& spec,
                                const std::vector<double>& weights,
                                const std::vector<SourceId>& banned,
                                uint64_t cache_epoch) {
  uint64_t h = SplitMix64(0x5bec0ffee5ULL ^ cache_epoch);
  auto mix = [&h](uint64_t v) { h = SplitMix64(h ^ v); };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  auto mix_id = [&mix](SourceId s) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(s)));
  };

  mix(static_cast<uint64_t>(universe.num_sources()));
  mix(static_cast<uint64_t>(spec.max_sources));
  mix_double(spec.theta);
  mix(static_cast<uint64_t>(spec.beta));
  mix(spec.source_constraints.size());
  for (SourceId s : spec.source_constraints) mix_id(s);
  // Bans via the sorted-unique view: ban order cannot change any quality,
  // so sessions differing only in ban order still share cache hits.
  mix(banned.size());
  for (SourceId s : banned) mix_id(s);
  mix(spec.ga_constraints.size());
  for (const GlobalAttribute& g : spec.ga_constraints) {
    mix(static_cast<uint64_t>(g.attributes().size()));
    for (const AttributeId& id : g.attributes()) {
      mix_id(id.source);
      mix(static_cast<uint64_t>(static_cast<uint32_t>(id.attr_index)));
    }
  }
  mix(weights.size());
  for (double w : weights) mix_double(w);
  mix(static_cast<uint64_t>(model.degradation().policy));
  mix_double(model.degradation().stale_discount);
  mix(static_cast<uint64_t>(model.num_qefs()));
  for (int i = 0; i < model.num_qefs(); ++i) {
    std::string_view name = model.qef(i).name();
    mix(name.size());
    for (char c : name) mix(static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  return h;
}

}  // namespace

SharedQualityCache::SharedQualityCache(size_t max_entries_per_shard)
    : max_entries_per_shard_(max_entries_per_shard) {}

uint64_t SharedQualityCache::SlotKey(uint64_t fingerprint,
                                     uint64_t key) const {
  return mix_fingerprint_ ? SplitMix64(fingerprint ^ key) : key;
}

SharedQualityCache::Probe SharedQualityCache::Lookup(
    uint64_t fingerprint, uint64_t key, const std::vector<SourceId>& candidate,
    double* quality) const {
  const uint64_t slot = SlotKey(fingerprint, key);
  Shard& shard = ShardFor(slot);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(slot);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Probe::kMiss;
  }
  // Verify fingerprint AND candidate: a slot collision between two specs
  // (or two candidates) must recompute, never cross-serve a tenant.
  if (it->second.fingerprint != fingerprint ||
      it->second.candidate != candidate) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return Probe::kReject;
  }
  *quality = it->second.quality;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return Probe::kHit;
}

bool SharedQualityCache::Insert(uint64_t fingerprint, uint64_t key,
                                const std::vector<SourceId>& candidate,
                                double quality) {
  const uint64_t slot = SlotKey(fingerprint, key);
  Shard& shard = ShardFor(slot);
  std::lock_guard<std::mutex> lock(shard.mu);
  const bool evict = shard.map.size() >= max_entries_per_shard_;
  if (evict) {
    shard.map.clear();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.map[slot] = Entry{fingerprint, candidate, quality};
  insertions_.fetch_add(1, std::memory_order_relaxed);
  return evict;
}

void SharedQualityCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
}

SharedQualityCache::Stats SharedQualityCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.rejects = rejects_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  return out;
}

size_t SharedQualityCache::size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

CandidateEvaluator::CandidateEvaluator(const Universe& universe,
                                       const ClusterMatcher& matcher,
                                       const QualityModel& model,
                                       const ProblemSpec& spec,
                                       uint64_t cache_epoch)
    : universe_(universe),
      matcher_(matcher),
      model_(model),
      spec_(spec),
      required_(ComputeRequired(spec)),
      banned_(SortedUnique(spec.banned_sources)),
      effective_weights_(spec.weight_overlay.empty() ? model.weights()
                                                     : spec.weight_overlay),
      needs_match_(model.NeedsMatching()),
      denominators_(model.UniverseDenominators(universe)) {
  Status status = ValidateSpec(universe, spec);
  UBE_CHECK(status.ok(), "invalid ProblemSpec: " + status.ToString());
  // Evaluate does not re-validate per call, so the weights it runs under
  // (the spec's overlay or the model's own) are checked once, here.
  status = model.ValidateWeightVector(effective_weights_);
  UBE_CHECK(status.ok(), "invalid weights: " + status.ToString());
  spec_fingerprint_ = ComputeSpecFingerprint(universe, model, spec,
                                             effective_weights_, banned_,
                                             cache_epoch);
  scorers_.reserve(static_cast<size_t>(model.num_qefs()));
  for (int i = 0; i < model.num_qefs(); ++i) {
    scorers_.push_back(model.qef(i).MakeDeltaScorer(universe));
  }
  no_match_.valid = true;  // no matching QEF: feasibility is structural

  // The per-source table, in one pass: the degradation policy is a pure
  // function of each source's stats, and the universe must not mutate
  // during a search, so it is applied once here instead of once per member
  // per evaluation. Unions are word ORs only when every admitted signature
  // is a PcsaSignature of one width (the class is final, so an exact type
  // check suffices); exact signatures keep MakeContext's Clone+MergeFrom.
  const int n = universe.num_sources();
  sources_.resize(static_cast<size_t>(n));
  for (SourceId s = 0; s < n; ++s) {
    const DataSource& source = universe.source(s);
    const QualityModel::SourcePolicy policy = model.PolicyFor(source);
    SourceEntry& e = sources_[static_cast<size_t>(s)];
    e.cardinality = source.cardinality();
    e.contribution = policy.weight * static_cast<double>(source.cardinality());
    e.degraded = policy.degraded;
    e.admitted = policy.admit_signature && source.has_signature();
    if (!e.admitted) continue;
    e.signature = &source.signature();
    if (typeid(*e.signature) == typeid(PcsaSignature)) {
      e.pcsa_words =
          &static_cast<const PcsaSignature&>(*e.signature).sketch().bitmaps();
      if (words_ == 0) words_ = e.pcsa_words->size();
    }
    pcsa_uniform_ = pcsa_uniform_ && e.pcsa_words != nullptr &&
                    e.pcsa_words->size() == words_;
  }
}

Status CandidateEvaluator::ValidateOverlay(const QualityModel& model,
                                           const ProblemSpec& spec) {
  if (spec.weight_overlay.empty()) return Status::Ok();
  return model.ValidateWeightVector(spec.weight_overlay);
}

Status CandidateEvaluator::ValidateSpec(const Universe& universe,
                                        const ProblemSpec& spec) {
  if (spec.max_sources < 1) {
    return Status::InvalidArgument("m (max_sources) must be >= 1");
  }
  if (!std::isfinite(spec.theta) || spec.theta < 0.0 || spec.theta > 1.0) {
    return Status::InvalidArgument("θ must be a finite number in [0, 1]");
  }
  if (spec.beta < 1) {
    return Status::InvalidArgument("β must be >= 1");
  }
  for (SourceId s : spec.source_constraints) {
    if (s < 0 || s >= universe.num_sources()) {
      return Status::InvalidArgument("source constraint out of range");
    }
  }
  for (SourceId s : spec.banned_sources) {
    if (s < 0 || s >= universe.num_sources()) {
      return Status::InvalidArgument("banned source out of range");
    }
  }
  for (size_t i = 0; i < spec.ga_constraints.size(); ++i) {
    const GlobalAttribute& g = spec.ga_constraints[i];
    if (!g.IsValid()) {
      return Status::InvalidArgument("GA constraint is not a valid GA");
    }
    for (const AttributeId& id : g.attributes()) {
      if (id.source < 0 || id.source >= universe.num_sources()) {
        return Status::InvalidArgument("GA constraint source out of range");
      }
      if (id.attr_index < 0 ||
          id.attr_index >=
              universe.source(id.source).schema().num_attributes()) {
        return Status::InvalidArgument(
            "GA constraint references a nonexistent attribute");
      }
    }
    for (size_t j = i + 1; j < spec.ga_constraints.size(); ++j) {
      if (g.Intersects(spec.ga_constraints[j])) {
        return Status::InvalidArgument("GA constraints must be disjoint");
      }
    }
  }
  std::vector<SourceId> required = ComputeRequired(spec);
  if (static_cast<int>(required.size()) > spec.max_sources) {
    return Status::Infeasible(
        "constraints force more sources than m allows");
  }
  for (SourceId banned : spec.banned_sources) {
    if (std::binary_search(required.begin(), required.end(), banned)) {
      return Status::Infeasible(
          "a source is both required (constraint) and banned");
    }
  }
  if (universe.num_sources() > 0 &&
      static_cast<int>(spec.banned_sources.size()) >=
          universe.num_sources()) {
    // Possible only when every source is banned (ids are validated above).
    std::vector<SourceId> banned = spec.banned_sources;
    std::sort(banned.begin(), banned.end());
    banned.erase(std::unique(banned.begin(), banned.end()), banned.end());
    if (static_cast<int>(banned.size()) == universe.num_sources()) {
      return Status::Infeasible("every source in the universe is banned");
    }
  }
  return Status::Ok();
}

CandidateEvaluator::Evaluation CandidateEvaluator::Evaluate(
    const std::vector<SourceId>& candidate) const {
  UBE_DCHECK(std::is_sorted(candidate.begin(), candidate.end()),
             "candidate must be sorted");
  UBE_DCHECK(!candidate.empty() &&
                 static_cast<int>(candidate.size()) <= spec_.max_sources,
             "candidate size out of [1, m]");
  UBE_DCHECK(std::includes(candidate.begin(), candidate.end(),
                           required_.begin(), required_.end()),
             "candidate must contain all required sources");
#ifndef NDEBUG
  for (SourceId s : candidate) {
    UBE_DCHECK(!IsBanned(s), "candidate contains a banned source");
  }
#endif

  Evaluation out;
  out.breakdown = Score(candidate, UnionFromScratch(candidate), &out.match);
  out.quality = out.breakdown.overall;
  if (!needs_match_) out.match = no_match_;
  return out;
}

QualityBreakdown CandidateEvaluator::Score(
    const std::vector<SourceId>& candidate, double union_estimate,
    MatchResult* match) const {
  CountEvaluation();
  EvalContext ctx;
  ctx.universe = &universe_;
  ctx.sources = &candidate;
  ctx.match = &no_match_;
  std::optional<MatchResult> discarded;
  if (needs_match_) {
    MatchOptions options;
    options.theta = spec_.theta;
    options.beta = spec_.beta;
    Result<MatchResult> result =
        matcher_.Match(candidate, spec_.source_constraints,
                       spec_.ga_constraints, options);
    UBE_CHECK(result.ok(), "Match failed: " + result.status().ToString());
    if (match == nullptr) match = &discarded.emplace();
    *match = std::move(result).value();
    ctx.match = match;
  }
  // Doubles are re-summed per evaluation, in candidate (ascending id)
  // order, from the precomputed per-source terms: identical operands in
  // identical order reproduce MakeContext's accumulation bits exactly.
  for (SourceId s : candidate) {
    const SourceEntry& e = sources_[static_cast<size_t>(s)];
    ctx.total_cardinality += e.cardinality;
    if (e.degraded) ++ctx.degraded_count;
    ctx.effective_cardinality += e.contribution;
    if (!e.admitted) continue;
    ++ctx.cooperating_count;
    ctx.cooperating_cardinality += e.contribution;
  }
  ctx.union_estimate = union_estimate;
  ctx.universe_cardinality = denominators_.cardinality;
  ctx.universe_union_estimate = denominators_.union_estimate;
  return model_.Evaluate(ctx, effective_weights_, scorers_);
}

double CandidateEvaluator::UnionFromScratch(
    const std::vector<SourceId>& candidate) const {
  if (pcsa_uniform_) {
    std::vector<uint32_t>& scratch = UnionScratch();
    scratch.assign(words_, 0);
    bool any = false;
    for (SourceId s : candidate) {
      const SourceEntry& e = sources_[static_cast<size_t>(s)];
      if (!e.admitted) continue;
      any = true;
      const std::vector<uint32_t>& words = *e.pcsa_words;
      for (size_t w = 0; w < words_; ++w) scratch[w] |= words[w];
    }
    return any ? PcsaSketch::EstimateFromBitmaps(scratch) : 0.0;
  }
  // Exact signatures: MakeContext's Clone-then-MergeFrom union, verbatim,
  // so the estimate bits cannot differ.
  std::unique_ptr<DistinctSignature> union_sig;
  for (SourceId s : candidate) {
    const SourceEntry& e = sources_[static_cast<size_t>(s)];
    if (!e.admitted) continue;
    if (union_sig == nullptr) {
      union_sig = e.signature->Clone();
    } else {
      union_sig->MergeFrom(*e.signature);
    }
  }
  return union_sig == nullptr ? 0.0 : union_sig->Estimate();
}

std::vector<uint32_t>& CandidateEvaluator::UnionScratch() {
  thread_local std::vector<uint32_t> scratch;
  return scratch;
}

uint64_t CandidateEvaluator::CacheKey(
    const std::vector<SourceId>& candidate) const {
  return SplitMix64(spec_fingerprint_ ^ hash_fn_(candidate));
}

bool CandidateEvaluator::CacheLookup(uint64_t key,
                                     const std::vector<SourceId>& candidate,
                                     double* quality) const {
  const SharedQualityCache::Probe probe =
      cache().Lookup(spec_fingerprint_, key, candidate, quality);
  if (probe == SharedQualityCache::Probe::kReject && obs_.ctx != nullptr) {
    obs_.ctx->metrics().Add(obs_.collision_recompute);
  }
  return probe == SharedQualityCache::Probe::kHit;
}

void CandidateEvaluator::CacheInsert(uint64_t key,
                                     const std::vector<SourceId>& candidate,
                                     double quality) const {
  if (cache().Insert(spec_fingerprint_, key, candidate, quality) &&
      obs_.ctx != nullptr) {
    obs_.ctx->metrics().Add(obs_.shard_eviction);
  }
}

void CandidateEvaluator::CountEvaluation() const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (obs_.ctx != nullptr) obs_.ctx->metrics().Add(obs_.computed);
}

void CandidateEvaluator::CountCacheHits(int64_t hits) const {
  cache_hits_.fetch_add(hits, std::memory_order_relaxed);
  if (obs_.ctx != nullptr && hits > 0) {
    obs_.ctx->metrics().Add(obs_.cache_hit, hits);
  }
}

void CandidateEvaluator::AttachObs(obs::ObsContext* obs) const {
  obs_ = ObsHooks{};
  obs_.ctx = obs;
  if (obs == nullptr) return;
  obs::MetricsRegistry& m = obs->metrics();
  obs_.computed = m.Counter("eval.computed");
  obs_.cache_hit = m.Counter("eval.cache_hit");
  obs_.collision_recompute = m.Counter("eval.collision_recompute");
  obs_.shard_eviction = m.Counter("eval.shard_eviction");
  obs_.batch_size =
      m.Histogram("eval.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                                      1024, 4096});
  // Wall-clock valued: the one metric family excluded from the
  // equal-totals-across-thread-counts guarantee.
  obs_.batch_latency_us =
      m.Histogram("eval.batch_latency_us",
                  {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
                   100000, 250000, 1000000});
}

void CandidateEvaluator::ResetCounters() const {
  evaluations_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
}

uint64_t CandidateEvaluator::HashCandidate(
    const std::vector<SourceId>& candidate) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (SourceId s : candidate) {
    h = SplitMix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(s)));
  }
  return h;
}

}  // namespace ube

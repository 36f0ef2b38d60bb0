#ifndef UBE_OPTIMIZE_EVALUATOR_H_
#define UBE_OPTIMIZE_EVALUATOR_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "matching/cluster_matcher.h"
#include "obs/obs.h"
#include "optimize/problem.h"
#include "qef/quality_model.h"
#include "source/universe.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace ube {

class DeltaEvaluator;

/// A quality cache shared across evaluators — the cross-session warm cache
/// of the multi-tenant SessionServer. Entries are keyed by (spec
/// fingerprint, candidate): the fingerprint digests everything a quality
/// value depends on (θ/β, constraints, effective weights, degradation
/// policy, model shape, universe version), so two sessions with equal specs
/// share hits while a session with different weights can never be served
/// another's values. Every hit re-verifies both the stored fingerprint and
/// the stored candidate, so a 64-bit key collision recomputes instead of
/// poisoning a tenant.
///
/// It is also the only quality cache: every CandidateEvaluator owns one
/// instance and memoizes through it unless another one is attached.
///
/// Layout: 16 shards, chosen by the top 4 bits of the slot key. Each shard
/// holds one open-addressing table of 16-byte slots {slot key, epoch,
/// record ref}, probed linearly at load <= 1/2, and keeps every entry's
/// fingerprint, quality and candidate inline as one record in 4 KB chunks
/// (a candidate too large for a chunk gets a chunk of its own). A slot is
/// live only while its epoch equals the shard's, so Clear() and a full
/// shard's eviction bump the epoch and rewind the chunk cursor: O(1), no
/// free per entry. A shard keeps its table and chunks until the store is
/// destroyed; they never grow past what its bound of entries needs, and a
/// store allocates nothing until its first insert.
///
/// Thread safety: Lookup/Insert are internally synchronized (one mutex per
/// shard, so concurrent probes only contend when they land on the same
/// shard) and safe from any number of concurrent sessions. Clear() is safe
/// too but racing solvers may re-insert immediately.
class SharedQualityCache {
 public:
  explicit SharedQualityCache(size_t max_entries_per_shard = 1u << 14);

  enum class Probe {
    kHit,     ///< cached and verified; *quality is filled
    kMiss,    ///< nothing under this slot
    kReject,  ///< the slot holds another spec's or candidate's entry
  };
  /// Looks `candidate` up under (fingerprint, key), verifying the stored
  /// fingerprint and candidate on every hit.
  Probe Lookup(uint64_t fingerprint, uint64_t key,
               const std::vector<SourceId>& candidate, double* quality) const;
  /// Inserts (bounded: a full shard is cleared first; last writer wins).
  /// Returns true when the insert cleared a full shard.
  bool Insert(uint64_t fingerprint, uint64_t key,
              const std::vector<SourceId>& candidate, double quality);
  void Clear();

  /// Cumulative counters (relaxed atomics; totals only settle once
  /// concurrent sessions quiesce).
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    /// Hits rejected by verification: same slot, different fingerprint or
    /// candidate (the would-be cross-session poisonings).
    int64_t rejects = 0;
    int64_t evictions = 0;  ///< full-shard clears
  };
  Stats stats() const;
  size_t size() const;

  /// Test hook: slot entries by candidate key only, ignoring the
  /// fingerprint, so two specs' entries collide on one slot and the
  /// verify-on-hit rejection path is exercised deterministically.
  void SetIdentityMixForTesting() { mix_fingerprint_ = false; }

  /// Test hook: clears every shard the way 2^32 - 2 Clear() calls on a
  /// fresh store would, leaving each epoch one Clear() short of wrapping.
  void ClearToLastEpochForTesting();

 private:
  static constexpr int kShardBits = 4;
  static constexpr size_t kNumShards = 1u << kShardBits;
  static constexpr size_t kChunkBytes = 4096;
  static constexpr int kOffsetBits = 9;  // 8-byte offsets in a 4 KB chunk
  static constexpr size_t kInitialSlots = 64;

  /// One table slot. It is live iff `epoch` equals its shard's epoch;
  /// epochs start at 1, so a zeroed slot is empty.
  struct Slot {
    uint64_t key = 0;
    uint32_t epoch = 0;
    uint32_t record = 0;  ///< (chunk index << kOffsetBits) | 8-byte offset
  };
  static_assert(sizeof(Slot) == 16);
  /// An entry as stored in a chunk: this header, then `capacity` SourceIds
  /// of which the first `size` are the candidate.
  struct Record {
    uint64_t fingerprint;
    double quality;
    uint32_t size;
    uint32_t capacity;
    SourceId* ids() { return reinterpret_cast<SourceId*>(this + 1); }
  };
  struct Chunk {
    std::unique_ptr<std::byte[]> bytes;
    size_t size = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    uint32_t epoch = 1;
    size_t live = 0;                ///< entries stored under `epoch`
    std::unique_ptr<Slot[]> slots;  ///< null until the first insert
    size_t mask = 0;                ///< slot count - 1 (a power of two)
    std::vector<Chunk> chunks;      ///< kept across clears
    size_t next_chunk = 0;          ///< chunks [0, next_chunk) hold records
    size_t used = kChunkBytes;      ///< bytes taken in chunks[next_chunk-1]

    /// The live slot holding `key`, else the empty slot it would take.
    Slot* SlotFor(uint64_t key) const;
    Record& RecordAt(uint32_t ref) const;
    /// Places a record with room for `capacity` ids; returns its ref.
    uint32_t Append(size_t capacity);
    /// Allocates the table, or doubles it and re-slots the live entries.
    void Grow();
    /// Drops every entry in O(1): bumps the epoch, rewinds the chunks.
    void Reset();
  };

  uint64_t SlotKey(uint64_t fingerprint, uint64_t key) const;
  Shard& ShardFor(uint64_t slot) const {
    return shards_[slot >> (64 - kShardBits)];
  }

  mutable Shard shards_[kNumShards];
  size_t max_entries_per_shard_;
  bool mix_fingerprint_ = true;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> insertions_{0};
  mutable std::atomic<int64_t> rejects_{0};
  mutable std::atomic<int64_t> evictions_{0};
};

/// Scores candidate source sets for one optimization problem: runs
/// Match(S, C, G) when the model needs it, builds the QEF context and
/// returns Q(S). Infeasible candidates (Match invalid on C) score 0.
///
/// Because tabu search revisits neighbourhoods, Quality() and
/// QualityBatch() memoize Q(S) in a SharedQualityCache: the evaluator's own
/// instance, or one attached with AttachSharedCache. Entries store the full
/// candidate next to the value and verify it on every hit — a 64-bit hash
/// collision therefore recomputes instead of silently returning the wrong
/// quality. A shard that reaches its bound evicts only itself (per-shard
/// clear), never the whole cache. Full Evaluate() (with schema and
/// breakdown) always computes.
///
/// Everything a score needs that depends only on the universe is computed
/// once, at construction: the per-source table (cardinality,
/// policy-weighted contribution, admitted and degraded bits, signature and
/// sketch words), the policy-adjusted denominators Σ_{t∈U}|t| and |∪U|
/// (summed and ORed in the same pass, |∪U| through the union routine that
/// scores candidates) and each QEF's MakeDeltaScorer table (null for the
/// matching and lambda QEFs, which are scored through Qef::Evaluate).
/// Every Q(S), for every model, is computed from these tables by one
/// private Score: Evaluate and QualityBatch hand it a union taken from
/// scratch, and a DeltaEvaluator over this evaluator hands it its
/// prefix/suffix union.
///
/// Thread safety: Quality(), QualityBatch(), Evaluate() and the counters
/// are safe to call concurrently (the referenced Universe/ClusterMatcher/
/// QualityModel must not be mutated during a search; evaluation reads only
/// the tables above, never the universe's aggregates).
/// ResetCounters()/ClearCache()/BeginRun() are not synchronized against
/// concurrent evaluation; call them between searches.
///
/// QualityBatch() scores a whole sampled neighborhood at once, optionally
/// on a ThreadPool. Results AND counter totals are bit-identical whether
/// the batch runs inline, on one worker, or on many: cache probing and
/// intra-batch deduplication happen sequentially up front, only the cache
/// misses (each a pure function of its candidate) are computed in
/// parallel, and insertion happens sequentially afterwards. Quality() is a
/// batch of one.
class CandidateEvaluator {
 public:
  /// All referees must outlive the evaluator. Call ValidateSpec and
  /// QualityModel::ValidateWeightVector on the effective weights (the
  /// spec's overlay, else the model's own) first, as Engine::Scope does;
  /// the constructor UBE_CHECKs the same conditions. `cache_epoch` is folded
  /// into the spec fingerprint — pass a universe version counter so a
  /// shared cache can never serve values computed before a churn event
  /// (equal specs over different universe states get distinct
  /// fingerprints).
  CandidateEvaluator(const Universe& universe, const ClusterMatcher& matcher,
                     const QualityModel& model, const ProblemSpec& spec,
                     uint64_t cache_epoch = 0);

  /// Checks a spec against a universe: ids in range, GA constraints valid
  /// and disjoint, θ/β sane, and |required| <= m.
  static Status ValidateSpec(const Universe& universe,
                             const ProblemSpec& spec);

  /// C ∪ {sources referenced by G}, sorted unique — the sources every
  /// feasible candidate must contain (the "permanently tabu" region).
  static std::vector<SourceId> RequiredSources(const ProblemSpec& spec);

  struct Evaluation {
    double quality = 0.0;
    QualityBreakdown breakdown;
    MatchResult match;
  };

  /// Fully evaluates a candidate (must be sorted, unique, contain all
  /// required sources, and have size in [1, m]; violations are programmer
  /// errors).
  Evaluation Evaluate(const std::vector<SourceId>& candidate) const;

  /// Q(S) only, memoized: QualityBatch over this one candidate.
  double Quality(const std::vector<SourceId>& candidate) const {
    return QualityBatch(std::span(&candidate, 1))[0];
  }

  /// Q(S) for every candidate in `candidates` (same preconditions as
  /// Evaluate), returned in input order, each miss scored with its union
  /// taken from scratch. Misses run on `pool` per MemoizedBatch's pool
  /// rule; duplicates within the batch are computed once and counted as
  /// cache hits, exactly as the equivalent sequence of Quality() calls
  /// would count them.
  std::vector<double> QualityBatch(
      std::span<const std::vector<SourceId>> candidates,
      ThreadPool* pool = nullptr) const {
    return MemoizedBatch(candidates, pool, [this, candidates](size_t i) {
      return Score(candidates[i], UnionFromScratch(candidates[i]), nullptr)
          .overall;
    });
  }

  /// RequiredSources(spec()), computed once.
  const std::vector<SourceId>& required_sources() const { return required_; }

  /// Sources no feasible candidate may contain, sorted unique.
  const std::vector<SourceId>& banned_sources() const { return banned_; }

  /// True iff `s` is banned.
  bool IsBanned(SourceId s) const {
    return std::binary_search(banned_.begin(), banned_.end(), s);
  }

  const ProblemSpec& spec() const { return spec_; }
  const Universe& universe() const { return universe_; }
  const QualityModel& model() const { return model_; }

  /// The weights every evaluation here runs under: the spec's weight
  /// overlay when present, the model's weights otherwise. Score runs under
  /// these, and a table-free reference must use them (not the model's) to
  /// agree with it bitwise under an overlay.
  const std::vector<double>& effective_weights() const {
    return effective_weights_;
  }

  /// 64-bit digest of everything a quality value depends on (spec, weights,
  /// degradation policy, model shape, cache epoch). Mixed into every cache
  /// key and stored next to shared-cache entries, so a warm cache from one
  /// spec can never answer for another.
  uint64_t spec_fingerprint() const { return spec_fingerprint_; }

  int64_t num_evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  int64_t num_cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  void ResetCounters() const;

  /// Drops every quality memoized in the evaluator's own cache. Solvers
  /// call this (via BeginRun) so each run starts cache-cold and reported
  /// evaluation counts/times are comparable across solvers instead of
  /// crediting later runs with the earlier runs' warm cache.
  void ClearCache() const { own_cache_.Clear(); }

  /// ClearCache() + ResetCounters(): what every Solve() invokes first.
  /// An attached shared cache deliberately survives — staying warm across
  /// runs and sessions is its purpose; fingerprinted keys keep it safe.
  void BeginRun() const {
    ClearCache();
    ResetCounters();
  }

  /// Routes this evaluator's memoization through `cache` instead of its
  /// own (null detaches). Like AttachObs, not synchronized against
  /// concurrent evaluation — attach before the search starts. Hits, misses
  /// and the eval.* metrics keep counting in this evaluator, so budget
  /// stops behave identically; only which store answers them changes.
  void AttachSharedCache(SharedQualityCache* cache) const {
    attached_cache_ = cache;
  }

  /// Attaches an observability context (null detaches). Records counters
  /// eval.computed / eval.cache_hit / eval.collision_recompute /
  /// eval.shard_eviction, histograms eval.batch_size /
  /// eval.batch_latency_us, and an eval/batch span per batch (a Quality
  /// call is a batch of one). Like BeginRun, not synchronized against
  /// concurrent evaluation — attach before the search starts. Never
  /// changes any returned quality.
  void AttachObs(obs::ObsContext* obs) const;
  void DetachObs() const { AttachObs(nullptr); }

  /// Test hook: replaces the cache hash function (e.g. with a constant) to
  /// force collisions and exercise the verify-on-hit path.
  using HashFn = uint64_t (*)(const std::vector<SourceId>&);
  void SetHashFunctionForTesting(HashFn fn) { hash_fn_ = fn; }

 private:
  /// The delta path (optimize/delta_evaluator.h) shares this evaluator's
  /// universe tables, Score and batch loop, so its scores, counters and
  /// metrics are QualityBatch's.
  friend class DeltaEvaluator;

  /// One row of the per-source table: what MakeContext derives from a
  /// source under the degradation policy, applied once at construction.
  struct SourceEntry {
    int64_t cardinality = 0;
    /// Policy weight × cardinality — the term MakeContext adds to
    /// effective_cardinality (and, when admitted, cooperating_cardinality).
    double contribution = 0.0;
    /// Signature admitted by the policy and present on the source.
    bool admitted = false;
    bool degraded = false;
    /// Signature present and counted in the universe-wide |∪U|.
    bool in_universe_union = false;
    /// Present whenever the source has a signature, admitted or not.
    const DistinctSignature* signature = nullptr;
    /// Raw sketch words when the signature is a PcsaSignature.
    const std::vector<uint32_t>* pcsa_words = nullptr;
  };

  /// The computation behind every Q(S): checks the candidate's
  /// preconditions (debug builds), counts the evaluation, runs
  /// Match(S) into *match when the model needs it (`match` may be null when
  /// the caller has no use for the result), fills the context from the
  /// per-source table and `union_estimate`, and scores it through
  /// QualityModel::Evaluate with the scorer tables. With `match` null and a
  /// model that reads only validity and F1 of Match(S)
  /// (match_quality_only_), it runs ClusterMatcher::Quality instead, and
  /// the context's Match result carries those two fields and no schema.
  QualityBreakdown Score(const std::vector<SourceId>& candidate,
                         double union_estimate, MatchResult* match) const;
  /// Estimated union of the `rows` whose `counted` bit is set (by default
  /// |∪S| over a candidate's admitted members), from scratch: word ORs on
  /// the uniform-PCSA table, MakeContext's Clone+MergeFrom otherwise.
  double UnionFromScratch(
      const std::vector<SourceId>& rows,
      bool SourceEntry::*counted = &SourceEntry::admitted) const;
  /// The word buffer unions are ORed into, one per thread: the misses of a
  /// batch may run concurrently on a pool.
  static std::vector<uint32_t>& UnionScratch();

  static uint64_t HashCandidate(const std::vector<SourceId>& candidate);

  /// Cache key of one candidate: the candidate hash mixed with the spec
  /// fingerprint, so keys from different specs never alias even when the
  /// candidate sets are identical (the cross-spec poisoning fix).
  uint64_t CacheKey(const std::vector<SourceId>& candidate) const;

  /// The store that answers: the attached cache, else the evaluator's own.
  SharedQualityCache& cache() const {
    return attached_cache_ != nullptr ? *attached_cache_ : own_cache_;
  }
  /// Probes cache() and fills *quality on a verified hit; a rejected slot
  /// counts eval.collision_recompute. Does not touch the hit counters.
  bool CacheLookup(uint64_t key, const std::vector<SourceId>& candidate,
                   double* quality) const;
  /// Publishes to cache(); a full-shard clear counts eval.shard_eviction.
  void CacheInsert(uint64_t key, const std::vector<SourceId>& candidate,
                   double quality) const;
  /// Counts one computed evaluation (num_evaluations, eval.computed) —
  /// every path that computes a Q(S) calls this once per candidate.
  void CountEvaluation() const;
  void CountCacheHits(int64_t hits) const;

  /// The loop behind every memoized Q(S), with the per-miss computation
  /// as a parameter: `compute(i)` scores candidates[i] (a union from
  /// scratch, or the delta path's flip union). Cache probing and
  /// intra-batch deduplication run sequentially up front, only the unique
  /// misses are computed, and publishing runs sequentially afterwards.
  /// Pool rule: the misses run on `pool` when the model needs Match(S),
  /// which dominates their cost, and inline otherwise, where each miss is
  /// O(sketch words + |S|).
  template <typename ComputeMiss>
  std::vector<double> MemoizedBatch(
      std::span<const std::vector<SourceId>> candidates, ThreadPool* pool,
      ComputeMiss compute) const {
    const size_t n = candidates.size();
    std::vector<double> out(n, 0.0);
    if (n == 0) return out;

    obs::Tracer::Span span = obs::SpanIf(obs_.ctx, "eval/batch");
    std::chrono::steady_clock::time_point batch_start;
    if (obs_.ctx != nullptr) {
      obs_.ctx->metrics().Observe(obs_.batch_size, static_cast<int64_t>(n));
      batch_start = std::chrono::steady_clock::now();
    }

    // Phase 1 (sequential): probe the cache and deduplicate the misses, so
    // a candidate appearing twice in one batch is computed once and the
    // second occurrence counts as a cache hit — exactly what a sequence of
    // Quality() calls would do. kResolved marks entries answered from cache.
    // `first` is an open-addressing table over the misses, sized to the
    // batch (load <= 1/2, linear probing): a cell holds 1 + a position in
    // `misses`, or 0 when empty.
    constexpr ptrdiff_t kResolved = -1;
    std::vector<ptrdiff_t> miss_of(n, kResolved);  // index into `misses`
    std::vector<size_t> misses;                    // first occurrence indices
    std::vector<uint64_t> miss_keys;
    const size_t mask = std::bit_ceil(2 * n) - 1;
    std::vector<size_t> first(mask + 1, 0);
    int64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const std::vector<SourceId>& candidate = candidates[i];
      uint64_t key = CacheKey(candidate);
      if (CacheLookup(key, candidate, &out[i])) {
        ++hits;
        continue;
      }
      size_t cell = key & mask;
      for (; first[cell] != 0; cell = (cell + 1) & mask) {
        const size_t pos = first[cell] - 1;
        if (miss_keys[pos] == key && candidates[misses[pos]] == candidate) {
          break;
        }
      }
      if (first[cell] != 0) {
        miss_of[i] = static_cast<ptrdiff_t>(first[cell] - 1);
        ++hits;
        continue;
      }
      miss_of[i] = static_cast<ptrdiff_t>(misses.size());
      first[cell] = misses.size() + 1;
      misses.push_back(i);
      miss_keys.push_back(key);
    }

    // Phase 2: compute the unique misses — each a pure function of its
    // candidate, so index order (and thread count) cannot change any value.
    std::vector<double> computed(misses.size(), 0.0);
    if (pool != nullptr && needs_match_ && misses.size() > 1) {
      pool->ParallelFor(misses.size(),
                        [&](size_t j) { computed[j] = compute(misses[j]); });
    } else {
      for (size_t j = 0; j < misses.size(); ++j) {
        computed[j] = compute(misses[j]);
      }
    }

    // Phase 3 (sequential): publish to the cache and scatter the results.
    for (size_t j = 0; j < misses.size(); ++j) {
      CacheInsert(miss_keys[j], candidates[misses[j]], computed[j]);
    }
    for (size_t i = 0; i < n; ++i) {
      if (miss_of[i] != kResolved) {
        out[i] = computed[static_cast<size_t>(miss_of[i])];
      }
    }
    CountCacheHits(hits);
    if (obs_.ctx != nullptr) {
      auto elapsed = std::chrono::steady_clock::now() - batch_start;
      obs_.ctx->metrics().Observe(
          obs_.batch_latency_us,
          std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
              .count());
    }
    return out;
  }

  const Universe& universe_;
  const ClusterMatcher& matcher_;
  const QualityModel& model_;
  const ProblemSpec& spec_;
  std::vector<SourceId> required_;
  std::vector<SourceId> banned_;
  std::vector<double> effective_weights_;
  uint64_t spec_fingerprint_ = 0;
  bool needs_match_ = false;
  /// needs_match_, and no QEF reads more of Match(S) than validity and F1
  /// (no schema coverage, no lambda): decided once, at construction.
  bool match_quality_only_ = false;
  /// The universe-wide work hoisted out of Evaluate (see the class comment).
  std::vector<std::unique_ptr<QefDeltaScorer>> scorers_;  // parallel to QEFs
  std::vector<SourceEntry> sources_;                       // by SourceId
  int64_t universe_cardinality_ = 0;
  double universe_union_estimate_ = 0.0;
  /// True when every signature is a PcsaSignature of `words_` bitmaps, so
  /// unions are word ORs.
  bool pcsa_uniform_ = true;
  size_t words_ = 0;
  /// The valid, empty Match result a model without a matching QEF scores
  /// against, so every context carries a Match result.
  MatchResult no_match_;
  mutable SharedQualityCache own_cache_;
  mutable SharedQualityCache* attached_cache_ = nullptr;
  HashFn hash_fn_ = &CandidateEvaluator::HashCandidate;
  mutable std::atomic<int64_t> evaluations_{0};
  mutable std::atomic<int64_t> cache_hits_{0};

  /// Pre-registered metric ids so hot paths never do name lookups; all -1
  /// (= MetricsRegistry::kInvalidMetric) when no context is attached.
  struct ObsHooks {
    obs::ObsContext* ctx = nullptr;
    int32_t computed = -1;
    int32_t cache_hit = -1;
    int32_t collision_recompute = -1;
    int32_t shard_eviction = -1;
    int32_t batch_size = -1;
    int32_t batch_latency_us = -1;
  };
  mutable ObsHooks obs_;
};

}  // namespace ube

#endif  // UBE_OPTIMIZE_EVALUATOR_H_

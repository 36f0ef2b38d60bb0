// The quality store's bit-identity oracle. SharedQualityCache keeps each
// shard's entries in one open-addressing table with the records in fixed
// chunks, and clears by bumping an epoch. ReferenceQualityCache below is the
// store it replaced (one node map per shard, cleared entry by entry), kept
// as the specification the way test_matcher_reference.cc keeps the naive
// matcher. Random sequences of Lookup/Insert/Clear run on both stores, and
// after every step the probe result, the quality bits, the eviction report,
// size() and Stats must agree. Directed tests cover what the replay cannot:
// concurrent use, the epoch wrap, candidates larger than a chunk, and the
// memory a shard holds.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "optimize/evaluator.h"
#include "qef/quality_model.h"
#include "testkit/generators.h"
#include "testkit/property.h"
#include "text/similarity.h"
#include "util/rng.h"

// Counts the heap bytes the process holds, so the memory tests can watch a
// store grow without an accessor on it. Sizes come from
// malloc_usable_size, so unsized deletes balance their news.
namespace {
std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }

namespace ube {
namespace {

using Probe = SharedQualityCache::Probe;
using Stats = SharedQualityCache::Stats;
using testkit::PropertyRunner;

int64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Reference implementation: the node-map store, as it was before the flat
// layout. Only the class name and Peek (a read-only view the generator uses
// to tell rejects apart) are new.
// ---------------------------------------------------------------------------

class ReferenceQualityCache {
 public:
  explicit ReferenceQualityCache(size_t max_entries_per_shard = 1u << 14)
      : max_entries_per_shard_(max_entries_per_shard) {}

  Probe Lookup(uint64_t fingerprint, uint64_t key,
               const std::vector<SourceId>& candidate, double* quality) const {
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

  bool Insert(uint64_t fingerprint, uint64_t key,
              const std::vector<SourceId>& candidate, double quality) {
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

  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
    }
  }

  Stats stats() const {
    Stats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.insertions = insertions_.load(std::memory_order_relaxed);
    out.rejects = rejects_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    return out;
  }

  size_t size() const {
    size_t total = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }

  void SetIdentityMixForTesting() { mix_fingerprint_ = false; }

  struct Entry {
    uint64_t fingerprint = 0;
    std::vector<SourceId> candidate;
    double quality = 0.0;
  };
  /// The entry under (fingerprint, key)'s slot, or null. Counts nothing.
  const Entry* Peek(uint64_t fingerprint, uint64_t key) const {
    const uint64_t slot = SlotKey(fingerprint, key);
    const Shard& shard = ShardFor(slot);
    auto it = shard.map.find(slot);
    return it == shard.map.end() ? nullptr : &it->second;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> map;
  };

  uint64_t SlotKey(uint64_t fingerprint, uint64_t key) const {
    return mix_fingerprint_ ? SplitMix64(fingerprint ^ key) : key;
  }
  Shard& ShardFor(uint64_t slot) const {
    return shards_[slot >> (64 - kShardBits)];
  }

  static constexpr int kShardBits = 4;
  static constexpr size_t kNumShards = 1u << kShardBits;
  mutable Shard shards_[kNumShards];
  size_t max_entries_per_shard_;
  bool mix_fingerprint_ = true;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> insertions_{0};
  mutable std::atomic<int64_t> rejects_{0};
  mutable std::atomic<int64_t> evictions_{0};
};

void ExpectSameStats(const Stats& got, const Stats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.rejects, want.rejects);
  EXPECT_EQ(got.evictions, want.evictions);
}

// The flat store and the reference side by side: every operation runs on
// both and must answer identically.
class StorePair {
 public:
  StorePair(size_t bound, bool identity) : flat_(bound), ref_(bound) {
    if (identity) {
      flat_.SetIdentityMixForTesting();
      ref_.SetIdentityMixForTesting();
    }
  }

  Probe Lookup(uint64_t fingerprint, uint64_t key,
               const std::vector<SourceId>& candidate) {
    double flat_q = -1.0;
    double ref_q = -1.0;
    const Probe want = ref_.Lookup(fingerprint, key, candidate, &ref_q);
    const Probe got = flat_.Lookup(fingerprint, key, candidate, &flat_q);
    EXPECT_EQ(got, want);
    EXPECT_EQ(std::bit_cast<uint64_t>(flat_q), std::bit_cast<uint64_t>(ref_q))
        << "quality bits differ";
    Check();
    return want;
  }

  bool Insert(uint64_t fingerprint, uint64_t key,
              const std::vector<SourceId>& candidate, double quality) {
    const bool want = ref_.Insert(fingerprint, key, candidate, quality);
    EXPECT_EQ(flat_.Insert(fingerprint, key, candidate, quality), want)
        << "eviction reports differ";
    Check();
    return want;
  }

  void Clear() {
    ref_.Clear();
    flat_.Clear();
    Check();
  }

  const ReferenceQualityCache& ref() const { return ref_; }
  SharedQualityCache& flat() { return flat_; }

 private:
  void Check() {
    EXPECT_EQ(flat_.size(), ref_.size());
    ExpectSameStats(flat_.stats(), ref_.stats());
  }

  SharedQualityCache flat_;
  ReferenceQualityCache ref_;
};

std::vector<SourceId> RandomCandidate(Rng& rng, int64_t min_size,
                                      int64_t max_size) {
  std::vector<SourceId> out(static_cast<size_t>(rng.UniformInt(min_size,
                                                               max_size)));
  for (SourceId& s : out) s = static_cast<SourceId>(rng.UniformInt(0, 999));
  return out;
}

// Qualities with awkward bits now and then, so a store that rounds or
// normalizes a value shows.
double RandomQuality(Rng& rng) {
  switch (rng.UniformInt(0, 9)) {
    case 0: return -0.0;
    case 1: return std::bit_cast<double>(uint64_t{1});  // smallest denormal
    default: return rng.UniformDouble();
  }
}

// What the generator reached, summed over every case, so the suite can
// require that each rule of the store was exercised.
struct Coverage {
  int64_t hits = 0;
  int64_t rejects_by_fingerprint = 0;
  int64_t rejects_by_candidate = 0;
  int64_t evictions = 0;
  int64_t evictions_with_key_present = 0;
  int64_t resizing_overwrites = 0;
  int64_t refills_after_clear = 0;
  size_t max_one_shard_size = 0;  ///< cases with every key in shard 0
};

void RunCase(Rng& rng, Coverage* coverage) {
  const bool identity = rng.Bernoulli(0.5);
  // Mostly tiny bounds, for evictions; now and then a large one, so tables
  // grow past their first size and records spill across chunks.
  const bool large = rng.Bernoulli(0.2);
  const size_t bound = static_cast<size_t>(
      large ? rng.UniformInt(40, 160) : rng.UniformInt(1, 8));
  StorePair stores(bound, identity);

  std::vector<uint64_t> fingerprints(
      static_cast<size_t>(rng.UniformInt(1, 3)));
  for (uint64_t& f : fingerprints) f = rng.Next64();
  // Under the identity mix the key is the slot: its top 4 bits pick the
  // shard (a few shards, so they fill) and low bits drawn from {0, 1, 2}
  // put several keys on one probe chain.
  const int64_t num_shards = identity ? rng.UniformInt(1, 3) : 16;
  std::vector<uint64_t> keys(static_cast<size_t>(
      large ? rng.UniformInt(100, 400) : rng.UniformInt(4, 40)));
  for (uint64_t& k : keys) {
    k = rng.Next64();
    if (identity) {
      const uint64_t shard = static_cast<uint64_t>(
          rng.UniformInt(0, num_shards - 1));
      k = (shard << 60) | (k & ((uint64_t{1} << 60) - 1));
      if (rng.Bernoulli(0.5)) {
        k = (k & ~uint64_t{0x3f}) | static_cast<uint64_t>(rng.UniformInt(0, 2));
      }
    }
  }
  // Each key's usual candidate; a lookup or insert sometimes uses another.
  std::vector<std::vector<SourceId>> usual(keys.size());
  for (auto& c : usual) c = RandomCandidate(rng, 1, 40);

  bool cleared = false;
  const int64_t steps = large ? 2000 : rng.UniformInt(50, 400);
  for (int64_t step = 0; step < steps; ++step) {
    const double roll = rng.UniformDouble();
    if (roll < 0.02) {
      stores.Clear();
      cleared = true;
      continue;
    }
    const uint64_t fingerprint =
        fingerprints[rng.UniformInt(uint64_t{fingerprints.size()})];
    const size_t k = rng.UniformInt(uint64_t{keys.size()});
    const uint64_t key = keys[k];
    std::vector<SourceId> candidate =
        rng.Bernoulli(0.75) ? usual[k] : RandomCandidate(rng, 1, 40);
    if (roll < 0.45) {
      const ReferenceQualityCache::Entry* present =
          stores.ref().Peek(fingerprint, key);
      const bool resizes =
          present != nullptr && present->candidate.size() != candidate.size();
      const bool evicted =
          stores.Insert(fingerprint, key, candidate, RandomQuality(rng));
      coverage->evictions += evicted;
      coverage->evictions_with_key_present += evicted && present != nullptr;
      coverage->resizing_overwrites += resizes && !evicted;
      coverage->refills_after_clear += cleared;
      cleared = false;
      if (rng.Bernoulli(0.1)) usual[k] = candidate;
    } else {
      const ReferenceQualityCache::Entry* present =
          stores.ref().Peek(fingerprint, key);
      const Probe probe = stores.Lookup(fingerprint, key, candidate);
      coverage->hits += probe == Probe::kHit;
      if (probe == Probe::kReject) {
        if (present->fingerprint != fingerprint) {
          ++coverage->rejects_by_fingerprint;
        } else {
          ++coverage->rejects_by_candidate;
        }
      }
    }
    if (identity && num_shards == 1) {
      coverage->max_one_shard_size =
          std::max(coverage->max_one_shard_size, stores.ref().size());
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(QualityStorePropertyTest, FlatStoreMatchesNodeMapReference) {
  PropertyRunner runner("flat-store-vs-node-map", 300);
  Coverage coverage;
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    RunCase(rng, &coverage);
    if (HasFailure()) return;
  }
  // The generator must reach every rule of the store. A short run (a
  // sanitizer leg's handful of cases) may miss some; the default run may
  // not.
  if (runner.num_cases() < 100) return;
  EXPECT_GT(coverage.hits, 0);
  EXPECT_GT(coverage.rejects_by_fingerprint, 0);
  EXPECT_GT(coverage.rejects_by_candidate, 0);
  EXPECT_GT(coverage.evictions, 0);
  EXPECT_GT(coverage.evictions_with_key_present, 0);
  EXPECT_GT(coverage.resizing_overwrites, 0);
  EXPECT_GT(coverage.refills_after_clear, 0);
  // Tables start at 64 slots and hold at most half: past 64 entries one
  // has doubled twice.
  EXPECT_GT(coverage.max_one_shard_size, 64u) << "no table grew";
}

// A candidate larger than a 4 KB chunk gets a chunk of its own; small
// records around it, and after a Clear() in the chunks it leaves behind,
// must still answer exactly as the reference does.
TEST(QualityStoreTest, CandidatesLargerThanAChunkRoundTrip) {
  Rng rng(20261018);
  StorePair stores(/*bound=*/64, /*identity=*/true);
  const std::vector<int64_t> sizes = {1, 1500, 3, 5000, 1018, 1019, 1020, 40};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<SourceId>> candidates;
    for (size_t i = 0; i < sizes.size(); ++i) {
      // The sizes rotate each round, so reused chunks see new mixes.
      const int64_t size = sizes[(i + static_cast<size_t>(round)) %
                                 sizes.size()];
      candidates.push_back(RandomCandidate(rng, size, size));
      stores.Insert(/*fingerprint=*/5, /*key=*/i, candidates.back(),
                    RandomQuality(rng));
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(stores.Lookup(5, i, candidates[i]), Probe::kHit);
    }
    // A small slot overwritten by a large candidate, then read back.
    candidates[0] = RandomCandidate(rng, 3000, 3000);
    stores.Insert(5, 0, candidates[0], 0.25);
    EXPECT_EQ(stores.Lookup(5, 0, candidates[0]), Probe::kHit);
    stores.Clear();
    if (HasFailure()) return;
  }
}

// Four threads race Lookup/Insert/Clear over a few overlapping slots of a
// small store. Every quality is a function of (fingerprint, candidate), so
// any hit that returns another value was served a torn or stale record.
TEST(QualityStoreTest, ConcurrentHitsReturnTheirOwnQuality) {
  for (bool identity : {false, true}) {
    SCOPED_TRACE(identity ? "identity mix" : "mixed slots");
    SharedQualityCache store(/*max_entries_per_shard=*/3);
    if (identity) store.SetIdentityMixForTesting();
    Rng setup(99);
    std::vector<std::vector<SourceId>> candidates(24);
    for (auto& c : candidates) c = RandomCandidate(setup, 1, 40);
    const uint64_t fingerprints[] = {11, 22};
    auto quality_of = [](uint64_t fingerprint, size_t index) {
      return static_cast<double>(fingerprint * 100 + index) / 4096.0;
    };
    constexpr int kThreads = 4;
    constexpr int kOps = 20000;
    std::atomic<int64_t> wrong{0};
    std::atomic<int64_t> lookups{0};
    std::atomic<int64_t> inserts{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(1000 + static_cast<uint64_t>(t));
        for (int op = 0; op < kOps; ++op) {
          const uint64_t fingerprint = fingerprints[rng.UniformInt(2)];
          const size_t index = rng.UniformInt(uint64_t{candidates.size()});
          // Six keys for 24 candidates: slots are shared, so rejects race
          // with overwrites.
          const uint64_t key = (index % 6) * 0x1111111111111111ULL;
          const double roll = rng.UniformDouble();
          if (roll < 0.001) {
            store.Clear();
          } else if (roll < 0.4) {
            store.Insert(fingerprint, key, candidates[index],
                         quality_of(fingerprint, index));
            inserts.fetch_add(1, std::memory_order_relaxed);
          } else {
            double quality = -1.0;
            if (store.Lookup(fingerprint, key, candidates[index], &quality) ==
                    Probe::kHit &&
                quality != quality_of(fingerprint, index)) {
              wrong.fetch_add(1, std::memory_order_relaxed);
            }
            lookups.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(wrong.load(), 0);
    const Stats stats = store.stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.rejects, lookups.load());
    EXPECT_EQ(stats.insertions, inserts.load());
    EXPECT_GT(stats.hits, 0);
    EXPECT_GT(stats.rejects, 0);
    EXPECT_LE(store.size(), 16u * 3u);
  }
}

// The epoch is 32 bits, so a store cleared 2^32 - 1 times wraps it. Entries
// stamped long ago, and the zeroed slots of a fresh table, must not come
// back to life when it does.
TEST(QualityStoreTest, EpochWrapLosesNothingAndResurrectsNothing) {
  SharedQualityCache store(/*max_entries_per_shard=*/4);
  store.SetIdentityMixForTesting();
  const std::vector<SourceId> a = {1, 2, 3};
  const std::vector<SourceId> b = {4, 5};
  // Key 5 and key 0 both land in shard 0; key 0's slot stays zeroed.
  store.Insert(/*fingerprint=*/7, /*key=*/5, a, 0.5);
  double quality = -1.0;
  ASSERT_EQ(store.Lookup(7, 5, a, &quality), Probe::kHit);

  store.ClearToLastEpochForTesting();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Lookup(7, 5, a, &quality), Probe::kMiss);
  store.Insert(7, 9, b, 0.75);
  ASSERT_EQ(store.Lookup(7, 9, b, &quality), Probe::kHit);

  store.Clear();  // wraps
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Lookup(7, 5, a, &quality), Probe::kMiss);
  EXPECT_EQ(store.Lookup(7, 9, b, &quality), Probe::kMiss);
  EXPECT_EQ(store.Lookup(7, 0, a, &quality), Probe::kMiss);
  EXPECT_EQ(quality, 0.75) << "a miss wrote a quality";

  // The wrapped store works as a fresh one, evictions included.
  for (uint64_t k = 1; k <= 5; ++k) {
    EXPECT_EQ(store.Insert(7, k, a, 0.125 * static_cast<double>(k)), k == 5);
  }
  ASSERT_EQ(store.Lookup(7, 5, a, &quality), Probe::kHit);
  EXPECT_EQ(quality, 0.625);
  EXPECT_EQ(store.size(), 1u);
  // An eviction that wraps the epoch behaves the same.
  store.ClearToLastEpochForTesting();
  for (uint64_t k = 1; k <= 5; ++k) store.Insert(7, k, a, 0.5);
  EXPECT_EQ(store.Lookup(7, 1, a, &quality), Probe::kMiss);
  EXPECT_EQ(store.Lookup(7, 0, a, &quality), Probe::kMiss);
  EXPECT_EQ(store.size(), 1u);
}

uint64_t ConstantHash(const std::vector<SourceId>&) { return 12345; }

// A constant hash sends every candidate an evaluator inserts to one slot,
// so each Quality() of a different candidate overwrites it. Alternating a
// small and a large candidate must not grow the shard: the slot's record
// is rewritten in place once it has room.
TEST(QualityStoreMemoryTest, OverwritingOneSlotStaysBounded) {
  Rng rng(4242);
  testkit::UniverseGenOptions gen;
  gen.min_sources = 48;
  gen.max_sources = 48;
  gen.exact_signatures = false;  // PCSA unions are word ORs: fast scoring
  Universe universe = testkit::GenerateUniverse(rng, gen);
  SimilarityGraph graph(universe, MakeDefaultSimilarity(), 0.25);
  ClusterMatcher matcher(universe, graph);
  QualityModel model = testkit::GenerateModel(rng, /*include_matching=*/false);
  ProblemSpec spec;
  spec.max_sources = 40;
  CandidateEvaluator evaluator(universe, matcher, model, spec);
  evaluator.SetHashFunctionForTesting(&ConstantHash);
  std::vector<SourceId> small = {0, 1, 2};
  std::vector<SourceId> large;
  for (SourceId s = 0; s < 36; ++s) large.push_back(s);

  auto overwrite = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      evaluator.Quality(i % 2 == 0 ? small : large);
    }
  };
  overwrite(8);
  const int64_t before = LiveBytes();
  overwrite(2000);
  const int64_t grown = LiveBytes() - before;
  EXPECT_LT(grown, 4096) << "one slot's overwrites grew the store";
  EXPECT_EQ(evaluator.num_evaluations(), 2008);
}

// Every CandidateEvaluator owns a store that a session's solves never use
// (they attach the server's), so an unused store must cost no heap.
TEST(QualityStoreMemoryTest, NothingIsAllocatedBeforeTheFirstInsert) {
  const std::vector<SourceId> candidate = {1, 2};
  double quality = 0.0;
  const int64_t before = LiveBytes();
  int64_t after_reads = 0;
  int64_t after_insert = 0;
  {
    SharedQualityCache store;
    for (uint64_t k = 0; k < 64; ++k) {
      store.Lookup(k, k * 0x9e3779b97f4a7c15ULL, candidate, &quality);
    }
    store.Clear();
    after_reads = LiveBytes() - before;
    store.Insert(1, 2, candidate, 0.5);
    after_insert = LiveBytes() - before;
  }
  const int64_t after_destroy = LiveBytes() - before;
  EXPECT_EQ(after_reads, 0);
  EXPECT_GT(after_insert, 0);
  EXPECT_EQ(after_destroy, 0) << "the store leaked";
}

}  // namespace
}  // namespace ube

#include "matching/cluster_matcher.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace ube {

namespace {

// One cluster of Algorithm 1. Its attributes form an intrusive list through
// MatchScratch::next (dense attribute indices), so a merge splices two lists
// in O(1) and keeps the first operand's attributes ahead of the second's.
// Its sources are a bitset over positions in sorted S, stored in
// MatchScratch::source_bits.
struct Cluster {
  int head = -1;                 // first attribute (dense index)
  int tail = -1;                 // last attribute
  int size = 0;                  // number of attributes
  double quality = 0.0;          // max pairwise similarity so far
  bool keep = false;             // grew from (or is) a user GA constraint
  bool retired = false;          // finalized into the output, no more merges
  bool absorbed = false;         // merged into another cluster
  bool discarded = false;        // eliminated singleton
  // Per-round flags (Algorithm 1 lines 3, 7).
  bool round_merged = false;
  bool round_mergecand = false;
  bool newly_created = false;

  bool Live() const { return !absorbed && !discarded; }
  bool Active() const { return Live() && !retired; }
};

// A similarity-graph edge at >= θ between two attributes of S.
struct ThetaEdge {
  int u;
  int v;
  float similarity;
};

struct PairCandidate {
  float similarity;
  int c1;  // c1 < c2
  int c2;
};

// Per-thread working memory reused across Match and Quality calls, so a
// call allocates only its result. Between calls every cluster_of and
// name_head entry is -1; a call sets the entries of S's attributes and
// names and restores them on every exit path (ScratchReset). cluster_of and
// next are indexed by dense attribute and name_head by name id; they grow
// to the largest graph the thread has matched over.
struct MatchScratch {
  std::vector<int> cluster_of;        // dense attr -> cluster, kTouched or -1
  std::vector<int> next;              // dense attr -> next in its cluster
  std::vector<int> name_head;         // name id -> first k with it, or -1
  std::vector<SourceId> sorted;       // S, sorted
  std::vector<int> attrs;             // k -> dense attr of S, sorted-S order
  std::vector<SourceId> attr_source;  // k -> source of attrs[k]
  std::vector<int> name_next;         // k -> next k with the same name
  std::vector<int32_t> names;         // distinct names of S
  std::vector<Cluster> clusters;
  std::vector<uint64_t> source_bits;  // clusters.size() blocks of words
  std::vector<uint64_t> covered;      // sources touched by the output
  std::vector<ThetaEdge> edges;
  std::vector<PairCandidate> pairs;
};

// cluster_of's mark, during a call, for an attribute that a θ-edge among
// S's attributes touches and that is not in a GA constraint. Only marked
// attributes become singletons. An unmarked one outside G has no θ-edge in
// S: it would form no pair, round 1 would discard it, and it would never be
// emitted. Skipping it keeps the relative order of every other cluster, so
// the tie-breaks, the merges, the GA order and the rounds do not change.
constexpr int kTouched = -2;

MatchScratch& Scratch() {
  thread_local MatchScratch scratch;
  return scratch;
}

// Restores cluster_of (clusters and kTouched marks alike) and name_head to
// all -1 over S's attributes and names when the call exits.
class ScratchReset {
 public:
  explicit ScratchReset(MatchScratch* scratch) : scratch_(scratch) {}
  ~ScratchReset() {
    for (int dense : scratch_->attrs) {
      scratch_->cluster_of[static_cast<size_t>(dense)] = -1;
    }
    for (int32_t name : scratch_->names) {
      scratch_->name_head[static_cast<size_t>(name)] = -1;
    }
  }
  ScratchReset(const ScratchReset&) = delete;
  ScratchReset& operator=(const ScratchReset&) = delete;

 private:
  MatchScratch* scratch_;
};

// Position of `s` in sorted S (s must be a member).
size_t PositionIn(const std::vector<SourceId>& sorted, SourceId s) {
  return static_cast<size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), s) - sorted.begin());
}

// Algorithm 1 lines 1-23, the clustering both assemblies share: validates
// the input, gathers the θ-edges among S's attributes, seeds the GA
// constraint clusters and a singleton per marked attribute, and runs the
// merge rounds. Returns the number of rounds, or InvalidArgument for
// malformed input; the clusters, their attribute lists (through `next`) and
// their source bitsets stay in `scratch` for the assembly.
Result<int> RunClustering(const Universe& universe,
                          const SimilarityGraph& graph,
                          const std::vector<SourceId>& sources,
                          const std::vector<SourceId>& source_constraints,
                          const std::vector<GlobalAttribute>& ga_constraints,
                          const MatchOptions& options, MatchScratch& scratch) {
  if (!std::isfinite(options.theta)) {
    return Status::InvalidArgument("matching threshold θ must be finite");
  }
  if (options.theta < graph.floor()) {
    return Status::InvalidArgument(
        "matching threshold θ is below the similarity graph floor");
  }
  if (options.beta < 1) {
    return Status::InvalidArgument("β must be >= 1");
  }

  // --- Input validation -----------------------------------------------
  std::vector<SourceId>& sorted = scratch.sorted;
  for (SourceId s : sources) {
    if (s < 0 || s >= universe.num_sources()) {
      return Status::InvalidArgument("source id out of range");
    }
  }
  sorted.assign(sources.begin(), sources.end());
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument("duplicate source id in S");
  }
  auto in_s = [&sorted](SourceId s) {
    return std::binary_search(sorted.begin(), sorted.end(), s);
  };
  for (SourceId c : source_constraints) {
    if (!in_s(c)) {
      return Status::InvalidArgument(
          "source constraint not contained in S (callers must ensure C ⊆ S)");
    }
  }
  for (size_t i = 0; i < ga_constraints.size(); ++i) {
    const GlobalAttribute& g = ga_constraints[i];
    if (!g.IsValid()) {
      return Status::InvalidArgument("GA constraint is not a valid GA");
    }
    for (const AttributeId& id : g.attributes()) {
      if (!in_s(id.source)) {
        return Status::InvalidArgument(
            "GA constraint references a source outside S");
      }
      const SourceSchema& schema = universe.source(id.source).schema();
      if (id.attr_index < 0 || id.attr_index >= schema.num_attributes()) {
        return Status::InvalidArgument(
            "GA constraint references a nonexistent attribute");
      }
    }
    for (size_t j = i + 1; j < ga_constraints.size(); ++j) {
      if (g.Intersects(ga_constraints[j])) {
        return Status::InvalidArgument("GA constraints must be disjoint");
      }
    }
  }

  // --- Initialization (Algorithm 1 lines 1-4) --------------------------
  // Every error return is above: nothing below writes cluster_of or
  // name_head before the guard exists.
  const size_t num_graph_attrs = static_cast<size_t>(graph.num_attributes());
  if (scratch.cluster_of.size() < num_graph_attrs) {
    scratch.cluster_of.resize(num_graph_attrs, -1);
    scratch.next.resize(num_graph_attrs, -1);
  }
  const size_t num_names = static_cast<size_t>(graph.num_names());
  if (scratch.name_head.size() < num_names) {
    scratch.name_head.resize(num_names, -1);
  }
  scratch.attrs.clear();
  scratch.attr_source.clear();
  scratch.names.clear();
  for (SourceId s : sorted) {
    const int width = universe.source(s).schema().num_attributes();
    for (int a = 0; a < width; ++a) {
      scratch.attrs.push_back(graph.DenseIndex(AttributeId{s, a}));
      scratch.attr_source.push_back(s);
    }
  }
  ScratchReset reset(&scratch);
  std::vector<int>& cluster_of = scratch.cluster_of;
  std::vector<int>& next = scratch.next;

  // The θ-edges among S's attributes, gathered once from the name rows,
  // each endpoint marked kTouched. S's attributes are grouped by name (a
  // list per name through name_head and name_next, over positions k in
  // attrs). Each name of S walks its row down to θ and pairs its group with
  // the group of each name it reaches: every name pair once, from the lower
  // id, and never two attributes of one source. The rounds sort their pairs
  // fully, so the order in which the edges are collected does not matter.
  const float theta = static_cast<float>(options.theta);
  const std::vector<int>& attrs = scratch.attrs;
  const std::vector<SourceId>& attr_source = scratch.attr_source;
  std::vector<int>& name_head = scratch.name_head;
  std::vector<int>& name_next = scratch.name_next;
  name_next.resize(attrs.size());
  for (size_t k = 0; k < attrs.size(); ++k) {
    int& head = name_head[static_cast<size_t>(graph.NameId(attrs[k]))];
    if (head == -1) scratch.names.push_back(graph.NameId(attrs[k]));
    name_next[k] = head;
    head = static_cast<int>(k);
  }
  std::vector<ThetaEdge>& edges = scratch.edges;
  edges.clear();
  for (int32_t x : scratch.names) {
    for (const SimilarityGraph::NameEdge& e : graph.NameRow(x)) {
      if (e.similarity < theta) break;
      if (e.name < x) continue;
      const int y_head = name_head[static_cast<size_t>(e.name)];
      for (int i = name_head[static_cast<size_t>(x)]; i != -1;
           i = name_next[static_cast<size_t>(i)]) {
        for (int j = e.name == x ? name_next[static_cast<size_t>(i)] : y_head;
             j != -1; j = name_next[static_cast<size_t>(j)]) {
          if (attr_source[static_cast<size_t>(i)] ==
              attr_source[static_cast<size_t>(j)]) {
            continue;
          }
          const int u = attrs[static_cast<size_t>(i)];
          const int v = attrs[static_cast<size_t>(j)];
          cluster_of[static_cast<size_t>(u)] = kTouched;
          cluster_of[static_cast<size_t>(v)] = kTouched;
          edges.push_back(ThetaEdge{u, v, e.similarity});
        }
      }
    }
  }

  std::vector<Cluster>& clusters = scratch.clusters;
  std::vector<uint64_t>& bits = scratch.source_bits;
  const size_t words = (sorted.size() + 63) / 64;
  clusters.clear();
  bits.clear();

  // Appends a cluster with the given attribute list head..tail and a
  // zeroed source bitset block; returns its index.
  auto add_cluster = [&](Cluster c) {
    const int idx = static_cast<int>(clusters.size());
    for (int x = c.head; x != -1; x = next[static_cast<size_t>(x)]) {
      cluster_of[static_cast<size_t>(x)] = idx;
    }
    clusters.push_back(c);
    bits.resize(bits.size() + words, 0);
    return idx;
  };
  auto set_bit = [&](int cluster, size_t position) {
    bits[static_cast<size_t>(cluster) * words + position / 64] |=
        uint64_t{1} << (position % 64);
  };

  // Every attribute of a GA constraint is clustered, marked or not.
  for (const GlobalAttribute& g : ga_constraints) {
    Cluster c;
    c.keep = true;
    for (const AttributeId& id : g.attributes()) {
      const int dense = graph.DenseIndex(id);
      next[static_cast<size_t>(dense)] = -1;
      if (c.head == -1) {
        c.head = dense;
      } else {
        next[static_cast<size_t>(c.tail)] = dense;
      }
      c.tail = dense;
      ++c.size;
    }
    // Quality of a user GA: max pairwise similarity (no threshold applies);
    // a single-attribute GA is perfectly coherent with itself.
    if (c.size == 1) {
      c.quality = 1.0;
    } else {
      double best = 0.0;
      for (int x = c.head; x != -1; x = next[static_cast<size_t>(x)]) {
        for (int y = next[static_cast<size_t>(x)]; y != -1;
             y = next[static_cast<size_t>(y)]) {
          best = std::max(best, graph.PairSimilarity(x, y));
        }
      }
      c.quality = best;
    }
    const int idx = add_cluster(c);
    for (const AttributeId& id : g.attributes()) {
      set_bit(idx, PositionIn(sorted, id.source));
    }
  }

  // The marked attributes outside G as singleton clusters, in sorted-S
  // order for determinism.
  for (size_t k = 0, p = 0; p < sorted.size(); ++p) {
    const int width = universe.source(sorted[p]).schema().num_attributes();
    for (int a = 0; a < width; ++a, ++k) {
      const int dense = attrs[k];
      if (cluster_of[static_cast<size_t>(dense)] != kTouched) continue;
      next[static_cast<size_t>(dense)] = -1;
      Cluster c;
      c.head = dense;
      c.tail = dense;
      c.size = 1;
      set_bit(add_cluster(c), p);
    }
  }

  // --- Merge rounds (Algorithm 1 lines 5-23) ---------------------------
  int rounds = 0;
  std::vector<PairCandidate>& pairs = scratch.pairs;
  bool done = false;
  while (!done) {
    done = true;
    ++rounds;
    for (Cluster& c : clusters) {
      c.round_merged = false;
      c.round_mergecand = false;
      c.newly_created = false;
    }

    // Line 8: all active-cluster pairs with similarity >= θ, max-linkage.
    // An edge whose endpoints share a cluster, or touch a retired or
    // discarded one, can never link two active clusters again, so it is
    // dropped for the remaining rounds.
    pairs.clear();
    size_t live_edges = 0;
    for (const ThetaEdge& e : edges) {
      int c1 = cluster_of[static_cast<size_t>(e.u)];
      int c2 = cluster_of[static_cast<size_t>(e.v)];
      if (c1 < 0 || c2 < 0 || c1 == c2) continue;
      if (!clusters[static_cast<size_t>(c1)].Active() ||
          !clusters[static_cast<size_t>(c2)].Active()) {
        continue;
      }
      edges[live_edges++] = e;
      if (c1 > c2) std::swap(c1, c2);
      pairs.push_back(PairCandidate{e.similarity, c1, c2});
    }
    edges.resize(live_edges);
    // One candidate per cluster pair at its max similarity, then highest
    // similarity first with a deterministic tie-break on cluster ids.
    std::sort(pairs.begin(), pairs.end(),
              [](const PairCandidate& a, const PairCandidate& b) {
                if (a.c1 != b.c1) return a.c1 < b.c1;
                if (a.c2 != b.c2) return a.c2 < b.c2;
                return a.similarity > b.similarity;
              });
    pairs.erase(std::unique(pairs.begin(), pairs.end(),
                            [](const PairCandidate& a, const PairCandidate& b) {
                              return a.c1 == b.c1 && a.c2 == b.c2;
                            }),
                pairs.end());
    std::sort(pairs.begin(), pairs.end(),
              [](const PairCandidate& a, const PairCandidate& b) {
                if (a.similarity != b.similarity) {
                  return a.similarity > b.similarity;
                }
                if (a.c1 != b.c1) return a.c1 < b.c1;
                return a.c2 < b.c2;
              });

    // Lines 9-19.
    for (const PairCandidate& cand : pairs) {
      const Cluster& c1 = clusters[static_cast<size_t>(cand.c1)];
      const Cluster& c2 = clusters[static_cast<size_t>(cand.c2)];
      if (!c1.round_merged && !c2.round_merged) {
        // A valid GA has at most one attribute per source.
        const uint64_t* b1 = &bits[static_cast<size_t>(cand.c1) * words];
        const uint64_t* b2 = &bits[static_cast<size_t>(cand.c2) * words];
        bool disjoint = true;
        for (size_t w = 0; w < words; ++w) disjoint &= (b1[w] & b2[w]) == 0;
        if (!disjoint) continue;
        // Merge c1 and c2 into a new cluster.
        Cluster merged;
        merged.head = c1.head;
        merged.tail = c2.tail;
        merged.size = c1.size + c2.size;
        next[static_cast<size_t>(c1.tail)] = c2.head;
        merged.quality =
            std::max({c1.quality, c2.quality,
                      static_cast<double>(cand.similarity)});
        // A single-attribute user GA had quality 1.0 by convention; once it
        // actually merges, the real max-pairwise value takes over.
        if (c1.keep && c1.size == 1 && !c2.keep) {
          merged.quality = std::max(c2.quality,
                                    static_cast<double>(cand.similarity));
        } else if (c2.keep && c2.size == 1 && !c1.keep) {
          merged.quality = std::max(c1.quality,
                                    static_cast<double>(cand.similarity));
        } else if (c1.keep && c1.size == 1 && c2.keep && c2.size == 1) {
          merged.quality = cand.similarity;
        }
        merged.keep = c1.keep || c2.keep;
        merged.newly_created = true;
        for (int i : {cand.c1, cand.c2}) {
          clusters[static_cast<size_t>(i)].absorbed = true;
          clusters[static_cast<size_t>(i)].round_merged = true;
        }
        // add_cluster may reallocate: c1/c2 references are dead after it.
        const int idx = add_cluster(merged);
        for (size_t w = 0; w < words; ++w) {
          bits[static_cast<size_t>(idx) * words + w] =
              bits[static_cast<size_t>(cand.c1) * words + w] |
              bits[static_cast<size_t>(cand.c2) * words + w];
        }
      } else if (c1.round_merged != c2.round_merged) {
        // Exactly one was already merged this round: keep the other for the
        // next round (lines 15-19).
        const int survivor = c1.round_merged ? cand.c2 : cand.c1;
        clusters[static_cast<size_t>(survivor)].round_mergecand = true;
        done = false;
      } else {
        // Both already merged this round. The two *new* clusters may still
        // be mergeable at >= θ (max-linkage inherits this pair's edge), so
        // another round is needed — the paper's prose termination condition
        // is "when it cannot find any more pairs of clusters to merge".
        done = false;
      }
    }

    // Lines 20-22: eliminate clusters that found no partner this round.
    // Merged multi-attribute clusters are retired into the output;
    // singletons are discarded. keep clusters always survive.
    for (Cluster& c : clusters) {
      if (!c.Active()) continue;
      if (c.newly_created || c.round_mergecand || c.keep) continue;
      if (c.size >= 2) {
        c.retired = true;
      } else {
        c.discarded = true;
        cluster_of[static_cast<size_t>(c.head)] = -1;
      }
    }
  }
  return rounds;
}

// Whether a finished cluster is a GA of M: live, and grown from a user GA
// constraint, or merged (never a bare singleton) with at least β
// attributes.
bool Emitted(const Cluster& c, int beta) {
  if (!c.Live()) return false;
  if (!c.keep && c.size < beta) return false;
  return c.keep || c.size >= 2;
}

// What both assemblies read off the emitted clusters, in cluster-index
// order (the GA order): validity on C and F1, and the number of GAs.
struct Emission {
  MatchQuality quality;
  size_t num_gas = 0;
};

Emission Emit(MatchScratch& scratch,
              const std::vector<SourceId>& source_constraints, int beta) {
  const std::vector<Cluster>& clusters = scratch.clusters;
  const std::vector<uint64_t>& bits = scratch.source_bits;
  const size_t words = (scratch.sorted.size() + 63) / 64;
  // Line 24: M must be valid on the source constraints C. The GAs are
  // disjoint and valid by construction, so validity is C-coverage: every
  // constrained source has an attribute in some emitted GA.
  std::vector<uint64_t>& covered = scratch.covered;
  covered.assign(words, 0);
  Emission out;
  double sum = 0.0;
  for (size_t ci = 0; ci < clusters.size(); ++ci) {
    if (!Emitted(clusters[ci], beta)) continue;
    ++out.num_gas;
    sum += clusters[ci].quality;
    for (size_t w = 0; w < words; ++w) covered[w] |= bits[ci * words + w];
  }
  for (SourceId s : source_constraints) {
    const size_t p = PositionIn(scratch.sorted, s);
    if ((covered[p / 64] >> (p % 64) & 1) == 0) return Emission{};
  }
  out.quality.valid = true;
  // F1: the mean GA quality, summed in GA order; 0 when M is empty.
  out.quality.matching_quality =
      out.num_gas == 0 ? 0.0 : sum / static_cast<double>(out.num_gas);
  return out;
}

}  // namespace

uint64_t MatchResultFingerprint(const MatchResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = SplitMix64(h ^ v); };
  mix(result.valid ? 1 : 0);
  mix(std::bit_cast<uint64_t>(result.matching_quality));
  mix(static_cast<uint64_t>(result.rounds));
  mix(static_cast<uint64_t>(result.schema.num_gas()));
  for (const GlobalAttribute& ga : result.schema.gas()) {
    mix(static_cast<uint64_t>(ga.attributes().size()));
    for (const AttributeId& id : ga.attributes()) {
      mix((static_cast<uint64_t>(static_cast<uint32_t>(id.source)) << 32) |
          static_cast<uint32_t>(id.attr_index));
    }
  }
  for (double q : result.ga_qualities) mix(std::bit_cast<uint64_t>(q));
  for (bool from_constraint : result.ga_from_constraint) {
    mix(from_constraint ? 1 : 0);
  }
  return h;
}

ClusterMatcher::ClusterMatcher(const Universe& universe,
                               const SimilarityGraph& graph)
    : universe_(universe), graph_(graph) {}

Result<MatchResult> ClusterMatcher::Match(
    const std::vector<SourceId>& sources,
    const std::vector<SourceId>& source_constraints,
    const std::vector<GlobalAttribute>& ga_constraints,
    const MatchOptions& options) const {
  MatchScratch& scratch = Scratch();
  Result<int> rounds = RunClustering(universe_, graph_, sources,
                                     source_constraints, ga_constraints,
                                     options, scratch);
  if (!rounds.ok()) return rounds.status();
  const Emission emission = Emit(scratch, source_constraints, options.beta);
  MatchResult result;
  result.rounds = rounds.value();
  if (!emission.quality.valid) return result;  // Algorithm 1 returns NULL

  std::vector<GlobalAttribute> gas;
  gas.reserve(emission.num_gas);
  result.ga_qualities.reserve(emission.num_gas);
  result.ga_from_constraint.reserve(emission.num_gas);
  for (const Cluster& c : scratch.clusters) {
    if (!Emitted(c, options.beta)) continue;
    std::vector<AttributeId> ids;
    ids.reserve(static_cast<size_t>(c.size));
    for (int x = c.head; x != -1; x = scratch.next[static_cast<size_t>(x)]) {
      ids.push_back(graph_.AttrId(x));
    }
    gas.emplace_back(std::move(ids));
    result.ga_qualities.push_back(c.quality);
    result.ga_from_constraint.push_back(c.keep);
  }
  result.schema = MediatedSchema(std::move(gas));
  UBE_DCHECK(result.schema.IsValidOn(source_constraints),
             "Match output must be disjoint, valid and cover C");
  result.valid = true;
  result.matching_quality = emission.quality.matching_quality;
  return result;
}

Result<MatchQuality> ClusterMatcher::Quality(
    const std::vector<SourceId>& sources,
    const std::vector<SourceId>& source_constraints,
    const std::vector<GlobalAttribute>& ga_constraints,
    const MatchOptions& options) const {
  MatchScratch& scratch = Scratch();
  Result<int> rounds = RunClustering(universe_, graph_, sources,
                                     source_constraints, ga_constraints,
                                     options, scratch);
  if (!rounds.ok()) return rounds.status();
  return Emit(scratch, source_constraints, options.beta).quality;
}

}  // namespace ube

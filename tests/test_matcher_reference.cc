// Differential test: an independent, deliberately naive implementation of
// Algorithm 1 (similarities recomputed from the attribute names, no
// similarity graph, no cluster index, plain vectors and sets) must produce
// exactly the production ClusterMatcher's MatchResult on random instances —
// compared by MatchResultFingerprint, so validity on C, the per-GA quality
// bits, the GA order, constraint provenance and the round count must all
// agree, not just the set of GAs. This catches data-structure bugs
// (cluster indexing, merge bookkeeping, retirement, scratch reuse) that
// invariants alone would miss. Every case also runs ClusterMatcher::Quality,
// the score call the search uses, whose validity and F1 bits must equal the
// full result's.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "source/universe.h"
#include "text/similarity.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace ube {
namespace {

constexpr double kFloor = 0.25;

// ---------------------------------------------------------------------------
// Reference implementation
// ---------------------------------------------------------------------------

struct RefCluster {
  std::vector<AttributeId> attrs;  // merge order: first operand, then second
  double quality = 0.0;
  bool keep = false;
  // A single-attribute user GA that has not merged yet; its quality is 1 by
  // convention.
  bool unit_keep = false;
  // Set once a unit user GA merges into a multi-attribute user-GA cluster:
  // production keeps the conventional 1 as that cluster's quality from then
  // on (max with 1), so the reference does too.
  bool sticky_one = false;
  bool retired = false;
  bool alive = true;
};

// Exact similarity of two attributes, recomputed from their names.
double NameSim(const Universe& universe, const AttributeSimilarity& sim,
               const AttributeId& x, const AttributeId& y) {
  return sim.Score(
      universe.source(x.source).schema().attribute_name(x.attr_index),
      universe.source(y.source).schema().attribute_name(y.attr_index));
}

// Index of the user GA constraint containing `id`, or -1.
int ConstraintOf(const std::vector<GlobalAttribute>& gas,
                 const AttributeId& id) {
  for (size_t i = 0; i < gas.size(); ++i) {
    if (gas[i].Contains(id)) return static_cast<int>(i);
  }
  return -1;
}

// Quality of a cluster recomputed over all of its attribute pairs: the
// maximum pairwise similarity, where a pair inside one user GA constraint
// keeps its exact double value (production scores user GAs with
// PairSimilarity) and every other pair is rounded through float, the
// precision the similarity graph stores.
double RefQuality(const Universe& universe, const AttributeSimilarity& sim,
                  const std::vector<GlobalAttribute>& gas,
                  const RefCluster& c) {
  if (c.unit_keep || c.sticky_one) return 1.0;
  double best = 0.0;
  for (size_t i = 0; i < c.attrs.size(); ++i) {
    for (size_t j = i + 1; j < c.attrs.size(); ++j) {
      double s = NameSim(universe, sim, c.attrs[i], c.attrs[j]);
      int gi = ConstraintOf(gas, c.attrs[i]);
      bool same_constraint = gi >= 0 && gi == ConstraintOf(gas, c.attrs[j]);
      if (!same_constraint) s = static_cast<float>(s);
      best = std::max(best, s);
    }
  }
  return best;
}

bool RefValidMerge(const RefCluster& a, const RefCluster& b) {
  std::set<SourceId> sources;
  for (const AttributeId& id : a.attrs) sources.insert(id.source);
  for (const AttributeId& id : b.attrs) {
    if (!sources.insert(id.source).second) return false;
  }
  return true;
}

// Max-linkage similarity between two clusters as float, over the pairs the
// similarity graph would store (cross-source, similarity >= floor and > 0);
// negative when no such pair exists.
float RefLink(const Universe& universe, const AttributeSimilarity& sim,
              const RefCluster& a, const RefCluster& b) {
  float best = -1.0f;
  for (const AttributeId& x : a.attrs) {
    for (const AttributeId& y : b.attrs) {
      if (x.source == y.source) continue;
      double s = NameSim(universe, sim, x, y);
      if (s < kFloor || s <= 0.0) continue;
      best = std::max(best, static_cast<float>(s));
    }
  }
  return best;
}

// Runs Algorithm 1 naively, with the same elimination-as-retirement policy,
// β filter, creation-order output and validity-on-C rule as production.
MatchResult ReferenceMatch(const Universe& universe,
                           const std::vector<SourceId>& sources,
                           const std::vector<SourceId>& source_constraints,
                           const std::vector<GlobalAttribute>& ga_constraints,
                           double theta, int beta) {
  NgramJaccardSimilarity sim(3);
  std::vector<RefCluster> clusters;

  std::set<AttributeId> constrained;
  for (const GlobalAttribute& g : ga_constraints) {
    RefCluster c;
    c.attrs = g.attributes();
    c.keep = true;
    c.unit_keep = c.attrs.size() == 1;
    c.quality = RefQuality(universe, sim, ga_constraints, c);
    for (const AttributeId& id : c.attrs) constrained.insert(id);
    clusters.push_back(std::move(c));
  }
  std::vector<SourceId> sorted_sources = sources;
  std::sort(sorted_sources.begin(), sorted_sources.end());
  for (SourceId s : sorted_sources) {
    const SourceSchema& schema = universe.source(s).schema();
    for (int a = 0; a < schema.num_attributes(); ++a) {
      AttributeId id{s, a};
      if (constrained.contains(id)) continue;
      RefCluster c;
      c.attrs = {id};
      clusters.push_back(std::move(c));
    }
  }

  MatchResult result;
  const float theta_f = static_cast<float>(theta);
  bool done = false;
  while (!done) {
    done = true;
    ++result.rounds;
    std::vector<size_t> active;
    for (size_t i = 0; i < clusters.size(); ++i) {
      if (clusters[i].alive && !clusters[i].retired) active.push_back(i);
    }
    // All pairs linked at >= θ, sorted by (similarity desc, i, j): cluster
    // ids are creation order in both implementations, so they align.
    struct Pair {
      float sim;
      size_t i, j;
    };
    std::vector<Pair> pairs;
    for (size_t x = 0; x < active.size(); ++x) {
      for (size_t y = x + 1; y < active.size(); ++y) {
        float link = RefLink(universe, sim, clusters[active[x]],
                             clusters[active[y]]);
        if (link >= 0.0f && link >= theta_f) {
          pairs.push_back({link, active[x], active[y]});
        }
      }
    }
    std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
      if (a.sim != b.sim) return a.sim > b.sim;
      if (a.i != b.i) return a.i < b.i;
      return a.j < b.j;
    });

    std::set<size_t> merged_this_round;
    std::set<size_t> mergecand;
    std::set<size_t> newly_created;
    for (const Pair& p : pairs) {
      bool i_merged = merged_this_round.contains(p.i);
      bool j_merged = merged_this_round.contains(p.j);
      if (!i_merged && !j_merged) {
        const RefCluster& a = clusters[p.i];
        const RefCluster& b = clusters[p.j];
        if (!RefValidMerge(a, b)) continue;
        RefCluster merged;
        merged.attrs = a.attrs;
        merged.attrs.insert(merged.attrs.end(), b.attrs.begin(),
                            b.attrs.end());
        merged.keep = a.keep || b.keep;
        merged.sticky_one = a.sticky_one || b.sticky_one ||
                            (a.unit_keep && b.keep && !b.unit_keep) ||
                            (b.unit_keep && a.keep && !a.unit_keep);
        merged.quality = RefQuality(universe, sim, ga_constraints, merged);
        clusters[p.i].alive = false;
        clusters[p.j].alive = false;
        merged_this_round.insert(p.i);
        merged_this_round.insert(p.j);
        newly_created.insert(clusters.size());
        clusters.push_back(std::move(merged));
      } else if (i_merged != j_merged) {
        mergecand.insert(i_merged ? p.j : p.i);
        done = false;
      } else {
        done = false;  // both merged: possible follow-up merge next round
      }
    }
    for (size_t i = 0; i < clusters.size(); ++i) {
      RefCluster& c = clusters[i];
      if (!c.alive || c.retired) continue;
      if (newly_created.contains(i) || mergecand.contains(i) || c.keep) {
        continue;
      }
      if (c.attrs.size() >= 2) {
        c.retired = true;
      } else {
        c.alive = false;
      }
    }
  }

  for (const RefCluster& c : clusters) {
    if (!c.alive) continue;
    if (!c.keep && static_cast<int>(c.attrs.size()) < std::max(2, beta)) {
      continue;
    }
    result.schema.Add(GlobalAttribute(c.attrs));
    result.ga_qualities.push_back(c.quality);
    result.ga_from_constraint.push_back(c.keep);
  }

  // Valid on C iff every constrained source has an attribute in some GA.
  for (SourceId s : source_constraints) {
    bool touched = false;
    for (const GlobalAttribute& g : result.schema.gas()) {
      touched = touched || g.TouchesSource(s);
    }
    if (!touched) {
      MatchResult failed;
      failed.rounds = result.rounds;
      return failed;
    }
  }
  result.valid = true;
  if (!result.ga_qualities.empty()) {
    double sum = 0.0;
    for (double q : result.ga_qualities) sum += q;
    result.matching_quality =
        sum / static_cast<double>(result.ga_qualities.size());
  }
  return result;
}

// ---------------------------------------------------------------------------
// Differential runs
// ---------------------------------------------------------------------------

struct MatchCase {
  std::vector<SourceId> sources;
  std::vector<SourceId> constraints;
  std::vector<GlobalAttribute> gas;
  double theta = 0.75;
  int beta = 2;
};

std::string Describe(const MatchResult& result) {
  std::string out = result.valid ? "valid" : "invalid";
  out += " rounds=" + std::to_string(result.rounds) + " q=" +
         std::to_string(result.matching_quality) + "\n";
  for (int i = 0; i < result.schema.num_gas(); ++i) {
    out += "  {";
    for (const AttributeId& id : result.schema.ga(i).attributes()) {
      out += ToString(id) + " ";
    }
    out += "} q=" + std::to_string(result.ga_qualities[static_cast<size_t>(i)]) +
           (result.ga_from_constraint[static_cast<size_t>(i)] ? " user" : "") +
           "\n";
  }
  return out;
}

// Runs both implementations on one case and requires identical
// fingerprints, and requires the score call to return the production
// result's validity and F1 bits. Returns the production result.
MatchResult ExpectAgrees(const Universe& universe, const ClusterMatcher& matcher,
                         const MatchCase& c) {
  MatchOptions options;
  options.theta = c.theta;
  options.beta = c.beta;
  Result<MatchQuality> quality =
      matcher.Quality(c.sources, c.constraints, c.gas, options);
  Result<MatchResult> actual =
      matcher.Match(c.sources, c.constraints, c.gas, options);
  EXPECT_TRUE(actual.ok()) << actual.status();
  EXPECT_TRUE(quality.ok()) << quality.status();
  if (!actual.ok() || !quality.ok()) return MatchResult();
  EXPECT_EQ(quality->valid, actual->valid);
  EXPECT_EQ(std::bit_cast<uint64_t>(quality->matching_quality),
            std::bit_cast<uint64_t>(actual->matching_quality))
      << "score call F1 " << quality->matching_quality << ", Match F1 "
      << actual->matching_quality;
  MatchResult expected = ReferenceMatch(universe, c.sources, c.constraints,
                                        c.gas, c.theta, c.beta);
  EXPECT_EQ(MatchResultFingerprint(actual.value()),
            MatchResultFingerprint(expected))
      << "theta=" << c.theta << " beta=" << c.beta << " |S|="
      << c.sources.size() << " |C|=" << c.constraints.size()
      << " |G|=" << c.gas.size() << "\nexpected: " << Describe(expected)
      << "actual:   " << Describe(actual.value());
  return std::move(actual).value();
}

// Up to `max_gas` disjoint random GA constraints over S, each of 1-3
// attributes from distinct sources of S.
std::vector<GlobalAttribute> RandomGaConstraints(
    Rng& rng, const Universe& universe, const std::vector<SourceId>& sources,
    int max_gas) {
  std::vector<GlobalAttribute> gas;
  std::set<AttributeId> used;
  const int count = static_cast<int>(rng.UniformInt(0, max_gas));
  for (int g = 0; g < count; ++g) {
    const int size = static_cast<int>(rng.UniformInt(1, 3));
    GlobalAttribute ga;
    std::set<SourceId> touched;
    for (int tries = 0; tries < 8 && ga.size() < size; ++tries) {
      SourceId s = sources[rng.UniformInt(sources.size())];
      const int width = universe.source(s).schema().num_attributes();
      if (width == 0 || touched.contains(s)) continue;
      AttributeId id{s, static_cast<int>(rng.UniformInt(
                            static_cast<uint64_t>(width)))};
      if (used.contains(id)) continue;
      touched.insert(s);
      ga.Add(id);
    }
    if (ga.empty()) continue;
    for (const AttributeId& id : ga.attributes()) used.insert(id);
    gas.push_back(std::move(ga));
  }
  return gas;
}

// A random case over `universe`: S of 2..max_sources sources, C of up to 3
// sources of S, up to 3 GA constraints, θ from {floor, 0.5, 0.75, 0.9} and
// β from {2, 3, 4}.
MatchCase RandomCase(Rng& rng, const Universe& universe, int max_sources) {
  MatchCase c;
  const int n = universe.num_sources();
  const int size = static_cast<int>(rng.UniformInt(2, max_sources));
  std::set<SourceId> picked;
  while (static_cast<int>(picked.size()) < size) {
    picked.insert(static_cast<SourceId>(rng.UniformInt(
        static_cast<uint64_t>(n))));
  }
  c.sources.assign(picked.begin(), picked.end());
  std::shuffle(c.sources.begin(), c.sources.end(), rng);  // any order is legal
  const int num_constraints = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < num_constraints; ++i) {
    SourceId s = c.sources[rng.UniformInt(c.sources.size())];
    if (std::find(c.constraints.begin(), c.constraints.end(), s) ==
        c.constraints.end()) {
      c.constraints.push_back(s);
    }
  }
  c.gas = RandomGaConstraints(rng, universe, c.sources, 3);
  const double thetas[] = {kFloor, 0.5, 0.75, 0.9};
  c.theta = thetas[rng.UniformInt(4)];
  c.beta = static_cast<int>(rng.UniformInt(2, 4));
  return c;
}

GeneratedWorkload MakeWorkload(int num_sources, uint64_t seed) {
  WorkloadConfig config;
  config.num_sources = num_sources;
  config.seed = seed;
  config.generate_data = false;
  return GenerateWorkload(config);
}

class MatcherReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherReferenceTest, AgreesOnRandomBooksInstances) {
  GeneratedWorkload workload =
      MakeWorkload(24, static_cast<uint64_t>(GetParam()) * 101 + 3);
  SimilarityGraph graph = SimilarityGraph::WithDefaults(workload.universe,
                                                        kFloor);
  ClusterMatcher matcher(workload.universe, graph);

  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  for (double theta : {kFloor, 0.5, 0.75, 0.9}) {
    MatchCase c;
    for (SourceId s = 0; s < 24; ++s) {
      if (rng.Bernoulli(0.5)) c.sources.push_back(s);
    }
    if (c.sources.size() < 2) c.sources = {0, 1, 2};
    c.theta = theta;
    ExpectAgrees(workload.universe, matcher, c);
  }
}

TEST_P(MatcherReferenceTest, AgreesWithGaConstraints) {
  GeneratedWorkload workload =
      MakeWorkload(16, static_cast<uint64_t>(GetParam()) * 31 + 9);
  SimilarityGraph graph = SimilarityGraph::WithDefaults(workload.universe,
                                                        kFloor);
  ClusterMatcher matcher(workload.universe, graph);

  MatchCase c;
  c.sources = workload.universe.AllIds();
  // A multi-attribute bridge between sources 0 and 1 and a single-attribute
  // GA on source 2: the two user-GA quality conventions.
  c.gas = {GlobalAttribute({AttributeId{0, 0}, AttributeId{1, 0}}),
           GlobalAttribute({AttributeId{2, 0}})};
  for (double theta : {kFloor, 0.55, 0.8}) {
    c.theta = theta;
    ExpectAgrees(workload.universe, matcher, c);
  }

}

TEST_P(MatcherReferenceTest, AgreesOnBetaFiltering) {
  GeneratedWorkload workload =
      MakeWorkload(20, static_cast<uint64_t>(GetParam()) * 13 + 5);
  SimilarityGraph graph = SimilarityGraph::WithDefaults(workload.universe,
                                                        kFloor);
  ClusterMatcher matcher(workload.universe, graph);
  MatchCase c;
  c.sources = workload.universe.AllIds();
  for (int beta : {2, 3, 4}) {
    c.beta = beta;
    ExpectAgrees(workload.universe, matcher, c);
  }
}

// User GAs that merge with each other, on a hand-made universe where the
// merge is certain and its link is below 1: two single-attribute GAs (the
// merged quality is the link), and a single-attribute GA merging into a
// multi-attribute one (the conventional 1 survives).
TEST(MatcherReferenceFixedTest, AgreesWhenUserGasMerge) {
  Universe universe;
  universe.AddSource(DataSource("a", SourceSchema({"author_name", "year"})));
  universe.AddSource(DataSource("b", SourceSchema({"author_names", "pages"})));
  universe.AddSource(DataSource("c", SourceSchema({"qqq_unrelated"})));
  SimilarityGraph graph = SimilarityGraph::WithDefaults(universe, kFloor);
  ClusterMatcher matcher(universe, graph);
  MatchCase c;
  c.sources = {0, 1, 2};
  const AttributeId a{0, 0};
  const AttributeId b{1, 0};
  const AttributeId q{2, 0};
  for (const std::vector<GlobalAttribute>& gas :
       {std::vector<GlobalAttribute>{GlobalAttribute({a}),
                                     GlobalAttribute({b})},
        std::vector<GlobalAttribute>{GlobalAttribute({a}),
                                     GlobalAttribute({b, q})}}) {
    c.gas = gas;
    for (double theta : {kFloor, 0.5}) {
      c.theta = theta;
      MatchResult result = ExpectAgrees(universe, matcher, c);
      ASSERT_EQ(result.schema.num_gas(), 1);
      EXPECT_EQ(result.schema.ga(0).size(), c.gas[1].size() + 1);
    }
  }
}

// Random source constraints C, single- and multi-attribute GA constraints,
// θ down to the graph floor and β in {2, 3, 4}. Across the seed's cases C
// must leave M invalid at least once, so the invalid exit is compared too.
TEST_P(MatcherReferenceTest, AgreesWithRandomConstraints) {
  GeneratedWorkload workload =
      MakeWorkload(24, static_cast<uint64_t>(GetParam()) * 53 + 11);
  SimilarityGraph graph = SimilarityGraph::WithDefaults(workload.universe,
                                                        kFloor);
  ClusterMatcher matcher(workload.universe, graph);
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 5);
  int invalid = 0;
  for (int i = 0; i < 40; ++i) {
    MatchCase c = RandomCase(rng, workload.universe, 12);
    if (i % 4 == 0) {
      // A constraint that nothing matches at θ = 0.9 makes M invalid.
      c.theta = 0.9;
      c.gas.clear();
      c.constraints = c.sources;
    }
    if (!ExpectAgrees(workload.universe, matcher, c).valid) ++invalid;
  }
  EXPECT_GT(invalid, 0) << "no case exercised the invalid-on-C exit";
}

// Paper scale: |U| = 200 with |S| <= 20, the size the serving path matches.
TEST_P(MatcherReferenceTest, AgreesAtPaperScale) {
  GeneratedWorkload workload =
      MakeWorkload(200, static_cast<uint64_t>(GetParam()) * 71 + 2);
  SimilarityGraph graph = SimilarityGraph::WithDefaults(workload.universe,
                                                        kFloor);
  ClusterMatcher matcher(workload.universe, graph);
  Rng rng(static_cast<uint64_t>(GetParam()) * 409 + 3);
  for (int i = 0; i < 3; ++i) {
    ExpectAgrees(workload.universe, matcher,
                 RandomCase(rng, workload.universe, 20));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherReferenceTest,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace ube

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/change_feed.h"
#include "matching/cluster_matcher.h"
#include "matching/similarity_graph.h"
#include "source/live_universe.h"
#include "source/universe.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace ube {
namespace {

Universe MakeUniverse(const std::vector<std::vector<std::string>>& schemas) {
  Universe u;
  for (size_t i = 0; i < schemas.size(); ++i) {
    u.AddSource(DataSource("src-" + std::to_string(i),
                           SourceSchema(schemas[i])));
  }
  return u;
}

MatchOptions Opts(double theta, int beta = 2) {
  MatchOptions o;
  o.theta = theta;
  o.beta = beta;
  return o;
}

// --------------------------- SimilarityGraph ----------------------------

TEST(SimilarityGraphTest, DenseIndexRoundTrip) {
  Universe u = MakeUniverse({{"title", "author"}, {"isbn"}, {"title"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.0);
  EXPECT_EQ(g.num_attributes(), 4);
  for (int i = 0; i < g.num_attributes(); ++i) {
    EXPECT_EQ(g.DenseIndex(g.AttrId(i)), i);
  }
  EXPECT_EQ(g.Name(g.DenseIndex(AttributeId{0, 1})), "author");
}

TEST(SimilarityGraphTest, NoEdgesWithinOneSource) {
  Universe u = MakeUniverse({{"title", "title x"}, {"isbn"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.0);
  int a0 = g.DenseIndex(AttributeId{0, 0});
  for (const auto& e : g.EdgesOf(a0)) {
    EXPECT_NE(g.AttrId(e.neighbor).source, 0);
  }
}

TEST(SimilarityGraphTest, IdenticalNamesShareUnitEdge) {
  Universe u = MakeUniverse({{"title"}, {"title"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.5);
  const auto& edges = g.EdgesOf(0);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].neighbor, 1);
  EXPECT_FLOAT_EQ(edges[0].similarity, 1.0f);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SimilarityGraphTest, EdgesAreSymmetric) {
  Universe u = MakeUniverse({{"author", "title"}, {"author name", "titles"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.1);
  for (int a = 0; a < g.num_attributes(); ++a) {
    for (const auto& e : g.EdgesOf(a)) {
      bool back = false;
      for (const auto& e2 : g.EdgesOf(e.neighbor)) {
        if (e2.neighbor == a) {
          EXPECT_FLOAT_EQ(e2.similarity, e.similarity);
          back = true;
        }
      }
      EXPECT_TRUE(back);
    }
  }
}

TEST(SimilarityGraphTest, FloorFiltersEdges) {
  Universe u = MakeUniverse({{"title"}, {"titles"}});
  SimilarityGraph low = SimilarityGraph::WithDefaults(u, 0.2);
  SimilarityGraph high = SimilarityGraph::WithDefaults(u, 0.9);
  EXPECT_EQ(low.num_edges(), 1u);   // J(title, titles) = 0.5
  EXPECT_EQ(high.num_edges(), 0u);
}

TEST(SimilarityGraphTest, PairSimilarityBelowFloorStillComputable) {
  Universe u = MakeUniverse({{"title"}, {"author"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.9);
  double sim = g.PairSimilarity(0, 1);
  EXPECT_GE(sim, 0.0);
  EXPECT_LT(sim, 0.2);
}

TEST(SimilarityGraphTest, GenericMeasureFallback) {
  Universe u = MakeUniverse({{"title"}, {"titel"}});
  SimilarityGraph g(u, std::make_unique<LevenshteinSimilarity>(), 0.1);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_NEAR(g.PairSimilarity(0, 1), 1.0 - 2.0 / 5.0, 1e-9);
}

// --------------------------- ClusterMatcher -----------------------------

TEST(ClusterMatcherTest, NonFiniteThetaRejected) {
  Universe u = MakeUniverse({{"title", "author"}, {"title", "author"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u);
  ClusterMatcher m(u, g);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    Result<MatchResult> r = m.Match({0, 1}, {}, {}, Opts(bad));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ClusterMatcherTest, IdenticalNamesFormOneGa) {
  Universe u = MakeUniverse({{"title", "author"},
                             {"title", "author"},
                             {"title"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1, 2}, {}, {}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->valid);
  ASSERT_EQ(r->schema.num_gas(), 2);
  EXPECT_EQ(r->schema.TotalAttributes(), 5);
  EXPECT_DOUBLE_EQ(r->matching_quality, 1.0);
  EXPECT_TRUE(r->schema.GasAreDisjointAndValid());
  // One GA has the three titles, one has the two authors.
  int sizes[2] = {r->schema.ga(0).size(), r->schema.ga(1).size()};
  EXPECT_EQ(sizes[0] + sizes[1], 5);
}

TEST(ClusterMatcherTest, ThetaBlocksWeakMatches) {
  // J(title, titles) = 0.5: merged at θ=0.4, not at θ=0.75.
  Universe u = MakeUniverse({{"title"}, {"titles"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> strict = matcher.Match({0, 1}, {}, {}, Opts(0.75));
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->schema.num_gas(), 0);
  Result<MatchResult> loose = matcher.Match({0, 1}, {}, {}, Opts(0.4));
  ASSERT_TRUE(loose.ok());
  ASSERT_EQ(loose->schema.num_gas(), 1);
  EXPECT_NEAR(loose->matching_quality, 0.5, 1e-6);
}

TEST(ClusterMatcherTest, SameSourceAttributesNeverMerge) {
  // Source 0 has two identical concepts; a valid GA can hold only one.
  Universe u = MakeUniverse({{"keyword", "keywords"}, {"keyword"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {}, Opts(0.4));
  ASSERT_TRUE(r.ok());
  for (const GlobalAttribute& ga : r->schema.gas()) {
    EXPECT_TRUE(ga.IsValid());
  }
  EXPECT_TRUE(r->schema.GasAreDisjointAndValid());
}

TEST(ClusterMatcherTest, QualityIsMaxPairwiseSimilarity) {
  // Chain: "publication year" ~ "publication years" (0.8), the latter ~
  // others lower; GA quality reports the max pair.
  Universe u = MakeUniverse(
      {{"publication year"}, {"publication years"}, {"publication yearz"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1, 2}, {}, {}, Opts(0.7));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->schema.num_gas(), 1);
  EXPECT_EQ(r->schema.ga(0).size(), 3);
  EXPECT_NEAR(r->ga_qualities[0], 16.0 / 21.0, 1e-6);
}

// The Figure 3 scenario: two lexical families that cannot merge without a
// user GA constraint bridging them.
class BridgingTest : public ::testing::Test {
 protected:
  BridgingTest()
      : universe_(MakeUniverse({{"customer first name"},
                                {"customer family name"},
                                {"customer first names"},
                                {"customer family names"}})),
        graph_(SimilarityGraph::WithDefaults(universe_, 0.25)),
        matcher_(universe_, graph_) {}

  Universe universe_;
  SimilarityGraph graph_;
  ClusterMatcher matcher_;
};

TEST_F(BridgingTest, WithoutConstraintFamiliesStaySeparate) {
  Result<MatchResult> r = matcher_.Match({0, 1, 2, 3}, {}, {}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->schema.num_gas(), 2);
  for (const GlobalAttribute& ga : r->schema.gas()) {
    EXPECT_EQ(ga.size(), 2);
    // Each GA holds one family: {0,2} (first) or {1,3} (family).
    std::vector<SourceId> sources = ga.Sources();
    bool first_family = sources == std::vector<SourceId>{0, 2};
    bool family_family = sources == std::vector<SourceId>{1, 3};
    EXPECT_TRUE(first_family || family_family);
  }
}

TEST_F(BridgingTest, GaConstraintBridgesTheGap) {
  GlobalAttribute bridge({AttributeId{0, 0}, AttributeId{1, 0}});
  Result<MatchResult> r =
      matcher_.Match({0, 1, 2, 3}, {}, {bridge}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->valid);
  // The bridge grows to swallow both families: one GA with all 4 attrs.
  ASSERT_EQ(r->schema.num_gas(), 1);
  EXPECT_EQ(r->schema.ga(0).size(), 4);
  EXPECT_TRUE(r->ga_from_constraint[0]);
  // G ⊑ M must hold.
  MediatedSchema g_schema({bridge});
  EXPECT_TRUE(g_schema.IsSubsumedBy(r->schema));
}

TEST_F(BridgingTest, UserGaKeptEvenWithLowQuality) {
  // A GA constraint pairing two dissimilar attributes survives even though
  // its quality is far below θ.
  GlobalAttribute bridge({AttributeId{0, 0}, AttributeId{1, 0}});
  Result<MatchResult> r = matcher_.Match({0, 1}, {}, {bridge}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->schema.num_gas(), 1);
  EXPECT_TRUE(r->ga_from_constraint[0]);
  EXPECT_LT(r->ga_qualities[0], 0.75);
}

TEST(ClusterMatcherTest, SingleAttributeUserGaScoresOne) {
  Universe u = MakeUniverse({{"title"}, {"author"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  GlobalAttribute single({AttributeId{0, 0}});
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {single}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->schema.num_gas(), 1);
  EXPECT_DOUBLE_EQ(r->ga_qualities[0], 1.0);
}

TEST(ClusterMatcherTest, SourceConstraintUnsatisfiedReturnsInvalid) {
  // Source 2's attribute matches nothing: no GA touches it, so M is not
  // valid on C = {2} and Match reports quality 0 (Algorithm 1's NULL).
  Universe u = MakeUniverse({{"title"}, {"title"}, {"zzz unique"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1, 2}, {2}, {}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->valid);
  EXPECT_DOUBLE_EQ(r->matching_quality, 0.0);
  EXPECT_EQ(r->schema.num_gas(), 0);
}

TEST(ClusterMatcherTest, SourceConstraintSatisfiedWhenTouched) {
  Universe u = MakeUniverse({{"title"}, {"title"}, {"zzz unique"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1, 2}, {0, 1}, {}, Opts(0.75));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->valid);
  EXPECT_EQ(r->schema.num_gas(), 1);
}

TEST(ClusterMatcherTest, BetaDropsSmallGas) {
  Universe u = MakeUniverse({{"title", "author"},
                             {"title", "author"},
                             {"title"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> beta2 = matcher.Match({0, 1, 2}, {}, {}, Opts(0.75, 2));
  Result<MatchResult> beta3 = matcher.Match({0, 1, 2}, {}, {}, Opts(0.75, 3));
  ASSERT_TRUE(beta2.ok());
  ASSERT_TRUE(beta3.ok());
  EXPECT_EQ(beta2->schema.num_gas(), 2);  // title x3, author x2
  EXPECT_EQ(beta3->schema.num_gas(), 1);  // only title x3 survives
  EXPECT_EQ(beta3->schema.ga(0).size(), 3);
}

TEST(ClusterMatcherTest, BetaExemptsUserGas) {
  Universe u = MakeUniverse({{"title"}, {"author"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  GlobalAttribute user_ga({AttributeId{0, 0}, AttributeId{1, 0}});
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {user_ga}, Opts(0.75, 5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema.num_gas(), 1);
}

TEST(ClusterMatcherTest, DeterministicAcrossCalls) {
  WorkloadConfig config;
  config.num_sources = 40;
  config.generate_data = false;
  GeneratedWorkload w = GenerateWorkload(config);
  SimilarityGraph g = SimilarityGraph::WithDefaults(w.universe, 0.25);
  ClusterMatcher matcher(w.universe, g);
  std::vector<SourceId> sources;
  for (SourceId s = 0; s < 40; s += 2) sources.push_back(s);
  Result<MatchResult> a = matcher.Match(sources, {}, {}, Opts(0.75));
  Result<MatchResult> b = matcher.Match(sources, {}, {}, Opts(0.75));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->schema.num_gas(), b->schema.num_gas());
  for (int i = 0; i < a->schema.num_gas(); ++i) {
    EXPECT_EQ(a->schema.ga(i), b->schema.ga(i));
  }
  EXPECT_DOUBLE_EQ(a->matching_quality, b->matching_quality);
}

// ------------------------- input validation ------------------------------

TEST(ClusterMatcherErrorTest, ThetaBelowFloorRejected) {
  Universe u = MakeUniverse({{"a"}, {"b"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.5);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {}, Opts(0.3));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterMatcherErrorTest, ConstraintOutsideS) {
  Universe u = MakeUniverse({{"a"}, {"b"}, {"c"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 1}, {2}, {}, Opts(0.75));
  EXPECT_FALSE(r.ok());
}

TEST(ClusterMatcherErrorTest, DuplicateSources) {
  Universe u = MakeUniverse({{"a"}, {"b"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  Result<MatchResult> r = matcher.Match({0, 0, 1}, {}, {}, Opts(0.75));
  EXPECT_FALSE(r.ok());
}

TEST(ClusterMatcherErrorTest, IntersectingGaConstraints) {
  Universe u = MakeUniverse({{"a"}, {"b"}, {"c"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  GlobalAttribute g1({AttributeId{0, 0}, AttributeId{1, 0}});
  GlobalAttribute g2({AttributeId{0, 0}, AttributeId{2, 0}});
  Result<MatchResult> r = matcher.Match({0, 1, 2}, {}, {g1, g2}, Opts(0.75));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterMatcherErrorTest, GaConstraintReferencesSourceOutsideS) {
  Universe u = MakeUniverse({{"a"}, {"b"}, {"c"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  GlobalAttribute ga({AttributeId{0, 0}, AttributeId{2, 0}});
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {ga}, Opts(0.75));
  EXPECT_FALSE(r.ok());
}

TEST(ClusterMatcherErrorTest, GaConstraintBadAttribute) {
  Universe u = MakeUniverse({{"a"}, {"b"}});
  SimilarityGraph g = SimilarityGraph::WithDefaults(u, 0.25);
  ClusterMatcher matcher(u, g);
  GlobalAttribute ga({AttributeId{0, 5}, AttributeId{1, 0}});
  Result<MatchResult> r = matcher.Match({0, 1}, {}, {ga}, Opts(0.75));
  EXPECT_FALSE(r.ok());
}

// ---------------------- randomized invariants ----------------------------

class MatcherPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherPropertyTest, OutputAlwaysValid) {
  WorkloadConfig config;
  config.num_sources = 30;
  config.seed = static_cast<uint64_t>(GetParam());
  config.generate_data = false;
  GeneratedWorkload w = GenerateWorkload(config);
  SimilarityGraph g = SimilarityGraph::WithDefaults(w.universe, 0.25);
  ClusterMatcher matcher(w.universe, g);

  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  for (double theta : {0.5, 0.75, 0.9}) {
    std::vector<SourceId> sources;
    for (SourceId s = 0; s < 30; ++s) {
      if (rng.Bernoulli(0.4)) sources.push_back(s);
    }
    if (sources.empty()) sources.push_back(0);
    Result<MatchResult> r = matcher.Match(sources, {}, {}, Opts(theta));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->valid);  // no source constraints -> always valid
    EXPECT_TRUE(r->schema.GasAreDisjointAndValid());
    ASSERT_EQ(r->ga_qualities.size(),
              static_cast<size_t>(r->schema.num_gas()));
    for (int i = 0; i < r->schema.num_gas(); ++i) {
      const GlobalAttribute& ga = r->schema.ga(i);
      EXPECT_GE(ga.size(), 2);
      EXPECT_TRUE(ga.IsValid());
      // θ lower bound holds for every generated (non-constraint) GA.
      EXPECT_GE(r->ga_qualities[i], theta - 1e-9);
      // All attributes belong to sources in S.
      for (const AttributeId& id : ga.attributes()) {
        EXPECT_TRUE(std::find(sources.begin(), sources.end(), id.source) !=
                    sources.end());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherPropertyTest,
                         ::testing::Range(1, 9));

// ---------------------- per-thread scratch reuse --------------------------

Universe BooksUniverse(int num_sources, uint64_t seed) {
  WorkloadConfig config;
  config.num_sources = num_sources;
  config.seed = seed;
  config.generate_data = false;
  return std::move(GenerateWorkload(config).universe);
}

// Match over a graph rebuilt from scratch, computed on a new thread so it
// starts from fresh per-thread scratch: nothing an earlier call left behind
// can leak into the expected value.
MatchResult FreshMatch(const Universe& universe,
                       const std::vector<SourceId>& sources,
                       const GlobalAttribute& ga, double theta) {
  MatchResult result;
  std::thread worker([&] {
    SimilarityGraph graph = SimilarityGraph::WithDefaults(universe, 0.25);
    ClusterMatcher matcher(universe, graph);
    Result<MatchResult> r = matcher.Match(sources, {}, {ga}, Opts(theta));
    if (r.ok()) result = std::move(r).value();
  });
  worker.join();
  return result;
}

// The attributes of S (dense indices) that have no θ-edge to an attribute
// of another source of S.
std::set<int> ThetaIsolated(const SimilarityGraph& graph,
                            const Universe& universe,
                            const std::vector<SourceId>& sources,
                            double theta) {
  std::set<int> isolated;
  for (SourceId s : sources) {
    for (int a = 0; a < universe.source(s).schema().num_attributes(); ++a) {
      const int dense = graph.DenseIndex(AttributeId{s, a});
      bool touched = false;
      for (const SimilarityGraph::Edge& e : graph.EdgesOf(dense)) {
        const SourceId other = graph.AttrId(e.neighbor).source;
        touched |= e.similarity >= static_cast<float>(theta) &&
                   std::find(sources.begin(), sources.end(), other) !=
                       sources.end();
      }
      if (!touched) isolated.insert(dense);
    }
  }
  return isolated;
}

// The matcher's working memory is per thread, sized by the largest graph
// (attributes and interned names) the thread has matched over, and must be
// left clean by every call. One thread alternates between matchers whose
// graphs have different attribute counts — and over a LiveUniverse graph
// grown in place by a source add and then an attribute add, each growth
// making it the largest graph yet, then by a rename and a source add that
// intern names never seen before — and every call must fingerprint like a
// fresh matcher over a rebuilt graph. Each S is matched by the score call
// and then by Match, alternating between two S per universe that share
// their first and last sources, so attributes of those sources move in and
// out of θ-isolation from one call to the next. The score call's validity
// and F1 bits must equal the fresh Match's.
TEST(ClusterMatcherTest, ScratchReuseAcrossGraphsMatchesFreshMatcher) {
  Universe small = BooksUniverse(12, 5);
  Universe medium = BooksUniverse(30, 6);
  SimilarityGraph small_graph = SimilarityGraph::WithDefaults(small, 0.25);
  SimilarityGraph medium_graph = SimilarityGraph::WithDefaults(medium, 0.25);
  ASSERT_LT(small_graph.num_attributes(), medium_graph.num_attributes());
  ClusterMatcher small_matcher(small, small_graph);
  ClusterMatcher medium_matcher(medium, medium_graph);
  LiveUniverse live(BooksUniverse(40, 7));
  ASSERT_LT(medium_graph.num_attributes(), live.graph().num_attributes());

  // The even ids or the odd ids, each with source 0 (the GA constraint's)
  // and the last source (the highest dense indices); a single-attribute GA
  // constraint rides along.
  auto subset = [](const Universe& universe, SourceId first) {
    std::vector<SourceId> sources = {0};
    for (SourceId s = first; s < universe.num_sources(); s += 2) {
      if (s != 0) sources.push_back(s);
    }
    if (sources.back() != universe.num_sources() - 1) {
      sources.push_back(universe.num_sources() - 1);
    }
    return sources;
  };
  const GlobalAttribute ga({AttributeId{0, 0}});
  // Attributes isolated under the even S of a universe and touched under
  // the odd S, which is matched next, summed over every call below.
  int moved = 0;
  auto expect_fresh = [&](const ClusterMatcher& matcher,
                          const Universe& universe, double theta) {
    const std::vector<SourceId> sets[] = {subset(universe, 0),
                                          subset(universe, 1)};
    for (const std::vector<SourceId>& sources : sets) {
      Result<MatchQuality> q = matcher.Quality(sources, {}, {ga}, Opts(theta));
      Result<MatchResult> r = matcher.Match(sources, {}, {ga}, Opts(theta));
      ASSERT_TRUE(q.ok()) << q.status();
      ASSERT_TRUE(r.ok()) << r.status();
      const MatchResult fresh = FreshMatch(universe, sources, ga, theta);
      EXPECT_EQ(MatchResultFingerprint(r.value()),
                MatchResultFingerprint(fresh))
          << "|U|=" << universe.num_sources() << " theta=" << theta;
      EXPECT_EQ(q->valid, fresh.valid);
      EXPECT_EQ(std::bit_cast<uint64_t>(q->matching_quality),
                std::bit_cast<uint64_t>(fresh.matching_quality))
          << "|U|=" << universe.num_sources() << " theta=" << theta;
    }
    const std::set<int> even =
        ThetaIsolated(matcher.graph(), universe, sets[0], theta);
    const std::set<int> odd =
        ThetaIsolated(matcher.graph(), universe, sets[1], theta);
    for (SourceId s : {SourceId{0}, universe.num_sources() - 1}) {
      for (int a = 0; a < universe.source(s).schema().num_attributes(); ++a) {
        const int dense = matcher.graph().DenseIndex(AttributeId{s, a});
        moved += even.contains(dense) && !odd.contains(dense) ? 1 : 0;
      }
    }
  };
  auto alternate = [&] {
    for (double theta : {0.5, 0.75}) {
      expect_fresh(live.matcher(), live.universe(), theta);
      expect_fresh(small_matcher, small, theta);
      expect_fresh(medium_matcher, medium, theta);
      expect_fresh(live.matcher(), live.universe(), theta);
      expect_fresh(small_matcher, small, theta);
    }
  };
  alternate();

  // Grow the live graph by a brand-new source...
  const int before_add = live.graph().num_attributes();
  ChurnEvent add;
  add.time_ms = 1.0;
  add.kind = ChurnEventKind::kAdd;
  add.source = live.universe().num_sources();
  add.added = std::make_unique<DataSource>(
      "newcomer", SourceSchema({"title", "author", "isbn", "price"}));
  ASSERT_TRUE(live.Apply(add).ok());
  ASSERT_GT(live.graph().num_attributes(), before_add);
  alternate();

  // ...then by an attribute appended to source 0.
  const int before_attr = live.graph().num_attributes();
  ChurnEvent attr;
  attr.time_ms = 2.0;
  attr.kind = ChurnEventKind::kAttrAdd;
  attr.source = 0;
  attr.attr_index = live.universe().source(0).schema().num_attributes();
  attr.attr_name = "publisher";
  ASSERT_TRUE(live.Apply(attr).ok());
  ASSERT_EQ(live.graph().num_attributes(), before_attr + 1);
  alternate();

  // ...then by a rename to a name never seen before...
  const int names_before_rename = live.graph().num_names();
  ChurnEvent rename;
  rename.time_ms = 3.0;
  rename.kind = ChurnEventKind::kAttrRename;
  rename.source = 2;
  rename.attr_index = 0;
  rename.attr_name = "title of the volume";
  ASSERT_TRUE(live.Apply(rename).ok());
  ASSERT_EQ(live.graph().num_names(), names_before_rename + 1);
  alternate();

  // ...and by a source whose names are all new.
  const int names_before_add = live.graph().num_names();
  ChurnEvent fresh;
  fresh.time_ms = 4.0;
  fresh.kind = ChurnEventKind::kAdd;
  fresh.source = live.universe().num_sources();
  fresh.added = std::make_unique<DataSource>(
      "stranger", SourceSchema({"titles of book", "authored by",
                                "isbn-13 code", "list price usd"}));
  ASSERT_TRUE(live.Apply(fresh).ok());
  ASSERT_EQ(live.graph().num_names(), names_before_add + 4);
  alternate();
  EXPECT_GT(moved, 0) << "no attribute went from θ-isolated to touched";
}

}  // namespace
}  // namespace ube

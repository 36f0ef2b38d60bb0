// Similarity-measure axioms over randomized attribute names.
//
// Every AttributeSimilarity must be symmetric, return 1 on identical
// inputs, and stay in [0, 1] (the interface contract the matcher relies
// on). Beyond the shared axioms, n-gram Jaccard satisfies the Jaccard
// triangle bound (1 − J is a metric on n-gram sets).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/change_feed.h"
#include "matching/similarity_graph.h"
#include "source/flaky.h"
#include "source/live_universe.h"
#include "testkit/generators.h"
#include "testkit/property.h"
#include "text/similarity.h"
#include "util/rng.h"

namespace ube {
namespace {

using testkit::PropertyRunner;

// Attribute-name-shaped strings: realistic vocabulary variants, raw noise,
// mixed case/punctuation (normalization fodder), and edge cases.
std::string RandomName(Rng& rng) {
  static const char* kBases[] = {"title", "author", "price",  "isbn",
                                 "year",  "format", "rating", "pages"};
  static const char* kEdges[] = {"", " ", "_", "a", "Price ", "PRICE",
                                 "book title", "book_title", "price_usd"};
  switch (rng.UniformInt(4)) {
    case 0:
      return kBases[rng.UniformInt(8)];
    case 1: {  // decorated vocabulary variant
      std::string s = kBases[rng.UniformInt(8)];
      if (rng.Bernoulli(0.5)) s = "book_" + s;
      if (rng.Bernoulli(0.5)) s += "_id";
      if (rng.Bernoulli(0.3)) {
        for (char& ch : s) {
          if (rng.Bernoulli(0.5)) ch = static_cast<char>(std::toupper(ch));
        }
      }
      return s;
    }
    case 2: {  // pure noise
      std::string s;
      const int length = static_cast<int>(rng.UniformInt(1, 10));
      for (int i = 0; i < length; ++i) {
        s.push_back(static_cast<char>('a' + rng.UniformInt(26)));
      }
      return s;
    }
    default:
      return kEdges[rng.UniformInt(9)];
  }
}

std::vector<std::unique_ptr<AttributeSimilarity>> AllMeasures() {
  std::vector<std::unique_ptr<AttributeSimilarity>> measures;
  measures.push_back(std::make_unique<NgramJaccardSimilarity>(2));
  measures.push_back(std::make_unique<NgramJaccardSimilarity>(3));
  measures.push_back(std::make_unique<LevenshteinSimilarity>());
  measures.push_back(MakeDefaultSimilarity());
  return measures;
}

TEST(SimilarityPropertyTest, SharedAxioms) {
  PropertyRunner runner("similarity-shared-axioms", 200);
  std::vector<std::unique_ptr<AttributeSimilarity>> measures = AllMeasures();
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    const std::string a = RandomName(rng);
    const std::string b = RandomName(rng);
    for (const auto& measure : measures) {
      SCOPED_TRACE(std::string(measure->name()) + "(\"" + a + "\", \"" + b +
                   "\")");
      const double ab = measure->Score(a, b);
      // Range.
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
      // Symmetry (exact: both directions walk the same code path).
      EXPECT_EQ(ab, measure->Score(b, a));
      // Identity.
      EXPECT_EQ(measure->Score(a, a), 1.0);
    }
  }
}

// 1 − Jaccard is a metric on sets, so on n-gram sets
// J(a, c) >= J(a, b) + J(b, c) − 1.
TEST(SimilarityPropertyTest, NgramJaccardTriangleBound) {
  PropertyRunner runner("ngram-jaccard-triangle", 300);
  NgramJaccardSimilarity bigram(2);
  NgramJaccardSimilarity trigram(3);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    const std::string a = RandomName(rng);
    const std::string b = RandomName(rng);
    const std::string d = RandomName(rng);
    for (const NgramJaccardSimilarity* measure : {&bigram, &trigram}) {
      SCOPED_TRACE("n=" + std::to_string(measure->n()) + " a=\"" + a +
                   "\" b=\"" + b + "\" c=\"" + d + "\"");
      EXPECT_GE(measure->Score(a, d),
                measure->Score(a, b) + measure->Score(b, d) - 1.0 - 1e-12);
    }
  }
}

// Name-row half of the oracle. Every pair of interned names x, y is scored
// directly, s = measure().Score(x, y): y is in row(x) exactly when
// s >= floor && s > 0 (x itself included), stored as static_cast<float>(s).
// Each row is similarity-descending with ties by ascending id, and y is in
// row(x) exactly when x is in row(y), with equal float bits.
void ExpectNameRowsMatchDefinition(const SimilarityGraph& graph) {
  const int k = graph.num_names();
  std::vector<std::vector<float>> row_sim(
      static_cast<size_t>(k),
      std::vector<float>(static_cast<size_t>(k), -1.0f));
  for (int32_t x = 0; x < k; ++x) {
    const auto& row = graph.NameRow(x);
    for (size_t i = 0; i < row.size(); ++i) {
      ASSERT_GE(row[i].name, 0);
      ASSERT_LT(row[i].name, k);
      ASSERT_EQ(row_sim[static_cast<size_t>(x)][static_cast<size_t>(
                    row[i].name)],
                -1.0f)
          << "name " << row[i].name << " twice in row " << x;
      row_sim[static_cast<size_t>(x)][static_cast<size_t>(row[i].name)] =
          row[i].similarity;
      if (i > 0) {
        const bool descending =
            row[i - 1].similarity > row[i].similarity ||
            (row[i - 1].similarity == row[i].similarity &&
             row[i - 1].name < row[i].name);
        ASSERT_TRUE(descending) << "row " << x << " entry " << i;
      }
    }
  }
  for (int32_t x = 0; x < k; ++x) {
    for (int32_t y = 0; y < k; ++y) {
      const float got =
          row_sim[static_cast<size_t>(x)][static_cast<size_t>(y)];
      ASSERT_EQ(std::bit_cast<uint32_t>(got),
                std::bit_cast<uint32_t>(
                    row_sim[static_cast<size_t>(y)][static_cast<size_t>(x)]))
          << "rows " << x << " and " << y << " disagree";
      const double s = graph.measure().Score(graph.InternedName(x),
                                             graph.InternedName(y));
      const float want =
          s >= graph.floor() && s > 0.0 ? static_cast<float>(s) : -1.0f;
      ASSERT_EQ(std::bit_cast<uint32_t>(got), std::bit_cast<uint32_t>(want))
          << "row " << x << " (\"" << graph.InternedName(x) << "\") -> " << y
          << " (\"" << graph.InternedName(y) << "\")";
    }
  }
}

// Graph-content oracle. It checks a SimilarityGraph against its definition
// through the public API only, so it catches a bug that construction and the
// live patches share (the patch-vs-rebuild suite compares two outputs of the
// same code and cannot). Every cross-source attribute pair a < b is scored
// directly, s = measure().Score(name_a, name_b): the edge is in both rows
// exactly when s >= floor && s > 0, stored as static_cast<float>(s). Rows
// are sorted by neighbor, same-source pairs have no edge, and num_edges()
// is the brute-force count. The name rows are checked too.
void ExpectGraphMatchesDefinition(const Universe& universe,
                                  const SimilarityGraph& graph) {
  ExpectNameRowsMatchDefinition(graph);
  if (::testing::Test::HasFatalFailure()) return;
  std::vector<AttributeId> ids;  // dense order
  std::vector<std::string> names;
  for (SourceId s = 0; s < universe.num_sources(); ++s) {
    const SourceSchema& schema = universe.source(s).schema();
    for (int i = 0; i < schema.num_attributes(); ++i) {
      ASSERT_EQ(graph.DenseIndex(AttributeId{s, i}),
                static_cast<int>(ids.size()));
      ids.push_back(AttributeId{s, i});
      names.push_back(schema.attribute_name(i));
    }
  }
  const int n = static_cast<int>(ids.size());
  ASSERT_EQ(graph.num_attributes(), n);

  // Pairs are visited a-major, so each expected row collects its lower
  // neighbors (from earlier a) before its higher ones: rows come out sorted.
  std::vector<std::vector<SimilarityGraph::Edge>> expected(
      static_cast<size_t>(n));
  size_t expected_edges = 0;
  for (int a = 0; a < n; ++a) {
    ASSERT_EQ(graph.Name(a), names[static_cast<size_t>(a)]);
    ASSERT_EQ(graph.AttrId(a), ids[static_cast<size_t>(a)]);
    for (int b = a + 1; b < n; ++b) {
      if (ids[static_cast<size_t>(a)].source ==
          ids[static_cast<size_t>(b)].source) {
        continue;
      }
      const double s = graph.measure().Score(names[static_cast<size_t>(a)],
                                             names[static_cast<size_t>(b)]);
      if (s >= graph.floor() && s > 0.0) {
        const float stored = static_cast<float>(s);
        expected[static_cast<size_t>(a)].push_back({b, stored});
        expected[static_cast<size_t>(b)].push_back({a, stored});
        ++expected_edges;
      }
    }
  }
  EXPECT_EQ(graph.num_edges(), expected_edges);
  for (int a = 0; a < n; ++a) {
    const auto& row = graph.EdgesOf(a);
    const auto& want = expected[static_cast<size_t>(a)];
    ASSERT_EQ(row.size(), want.size())
        << "row " << a << " (\"" << names[static_cast<size_t>(a)] << "\")";
    for (size_t k = 0; k < row.size(); ++k) {
      ASSERT_EQ(row[k].neighbor, want[k].neighbor)
          << "row " << a << " edge " << k;
      ASSERT_EQ(std::bit_cast<uint32_t>(row[k].similarity),
                std::bit_cast<uint32_t>(want[k].similarity))
          << "row " << a << " -> " << want[k].neighbor;
    }
  }
}

std::unique_ptr<AttributeSimilarity> OracleMeasure(bool ngram) {
  if (ngram) return MakeDefaultSimilarity();
  return std::make_unique<LevenshteinSimilarity>();
}

constexpr double kOracleFloors[] = {0.0, 0.25, 1.0};

// Fresh graphs over testkit universes (every floor, both measures), then one
// measure/floor pairing per case checked after every event of a seeded
// churn trace with schema drift.
TEST(SimilarityPropertyTest, GraphContentMatchesDefinition) {
  PropertyRunner runner("graph-content-oracle", 30);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    testkit::UniverseGenOptions gen;
    gen.min_sources = 4;
    gen.max_sources = 12;
    gen.max_attributes = 7;
    Universe universe = testkit::GenerateUniverse(rng, gen);
    for (bool ngram : {true, false}) {
      for (double floor : kOracleFloors) {
        SCOPED_TRACE(std::string(ngram ? "ngram" : "levenshtein") +
                     " floor " + std::to_string(floor));
        SimilarityGraph graph(universe, OracleMeasure(ngram), floor);
        ExpectGraphMatchesDefinition(universe, graph);
        if (HasFatalFailure()) return;
      }
    }

    ChurnFeedConfig config;
    config.seed = rng.Next64();
    config.events_per_sec = 2.0;
    config.horizon_ms = 8'000.0;
    ChurnTrace trace = GenerateChurnTrace(universe, config).value();
    const bool ngram = c % 2 == 0;
    const double floor = kOracleFloors[(c / 2) % 3];
    SCOPED_TRACE(std::string(ngram ? "live ngram" : "live levenshtein") +
                 " floor " + std::to_string(floor));
    LiveUniverse::Options live_options;
    live_options.similarity = OracleMeasure(ngram);
    live_options.similarity_floor = floor;
    LiveUniverse live(CloneUniverse(universe), std::move(live_options));
    int step = 0;
    for (const ChurnEvent& event : trace.events) {
      SCOPED_TRACE("event " + std::to_string(step++) + " kind " +
                   std::string(ChurnEventKindName(event.kind)));
      ASSERT_TRUE(live.Apply(event).ok());
      ExpectGraphMatchesDefinition(live.universe(), live.graph());
      if (HasFatalFailure()) return;
    }
  }
}

// Names that stress name handling: "#" and "--" normalize to "" (empty
// n-gram sets, Jaccard(∅, ∅) = 1), case/punctuation variants of one word,
// and a name repeated within one source (which must still get no
// same-source edge). Checked fresh and after hand-written events that
// rename, add and revive with the same kinds of names.
Universe EdgeCaseNameUniverse() {
  Universe universe;
  universe.AddSource(
      DataSource("s0", SourceSchema({"#", "Title", "title", "isbn"})));
  universe.AddSource(
      DataSource("s1", SourceSchema({"--", "TITLE!", "title", "title"})));
  universe.AddSource(
      DataSource("s2", SourceSchema({"#", "price", "Price ", "a"})));
  universe.AddSource(DataSource("s3", SourceSchema({"title", "b"})));
  return universe;
}

TEST(SimilarityPropertyTest, GraphContentEdgeCaseNames) {
  for (bool ngram : {true, false}) {
    for (double floor : kOracleFloors) {
      SCOPED_TRACE(std::string(ngram ? "ngram" : "levenshtein") + " floor " +
                   std::to_string(floor));
      Universe universe = EdgeCaseNameUniverse();
      SimilarityGraph graph(universe, OracleMeasure(ngram), floor);
      ExpectGraphMatchesDefinition(universe, graph);
      // The two empty-normalizing names are identical to the measure.
      const int hash = graph.DenseIndex({0, 0});
      const int dashes = graph.DenseIndex({1, 0});
      const auto& row = graph.EdgesOf(hash);
      EXPECT_TRUE(std::any_of(row.begin(), row.end(),
                              [dashes](const SimilarityGraph::Edge& e) {
                                return e.neighbor == dashes &&
                                       e.similarity == 1.0f;
                              }));
      // The repeated "title" of s1 never links to itself.
      const int first_title = graph.DenseIndex({1, 2});
      const int second_title = graph.DenseIndex({1, 3});
      for (const auto& edge : graph.EdgesOf(first_title)) {
        EXPECT_NE(edge.neighbor, second_title);
      }

      LiveUniverse::Options live_options;
      live_options.similarity = OracleMeasure(ngram);
      live_options.similarity_floor = floor;
      LiveUniverse live(EdgeCaseNameUniverse(), std::move(live_options));
      std::vector<ChurnEvent> events;
      auto rename = [&events](SourceId source, int index, std::string name) {
        ChurnEvent event;
        event.kind = ChurnEventKind::kAttrRename;
        event.source = source;
        event.attr_index = index;
        event.attr_name = std::move(name);
        events.push_back(std::move(event));
      };
      rename(0, 3, "--");      // empty-normalizing; "isbn" falls out of use
      rename(2, 3, "TITLE!");  // already interned; "a" falls out of use
      rename(2, 0, "title");   // "#" is still used by s0
      {
        ChurnEvent event;
        event.kind = ChurnEventKind::kAttrAdd;
        event.source = 3;
        event.attr_index = 2;
        event.attr_name = "title";  // repeated within s3
        events.push_back(std::move(event));
      }
      {
        ChurnEvent event;
        event.kind = ChurnEventKind::kRemove;
        event.source = 1;
        events.push_back(std::move(event));
      }
      {
        ChurnEvent event;
        event.kind = ChurnEventKind::kAdd;
        event.source = 4;
        event.added = std::make_unique<DataSource>(
            "s4", SourceSchema({"#", "Title", "title", "brand new"}));
        events.push_back(std::move(event));
      }
      {
        ChurnEvent event;
        event.kind = ChurnEventKind::kAdd;
        event.source = 1;
        event.revive = true;
        events.push_back(std::move(event));
      }
      {
        ChurnEvent event;
        event.kind = ChurnEventKind::kAttrDrop;
        event.source = 0;
        event.attr_index = 1;
        events.push_back(std::move(event));
      }
      int step = 0;
      for (const ChurnEvent& event : events) {
        SCOPED_TRACE("event " + std::to_string(step++) + " kind " +
                     std::string(ChurnEventKindName(event.kind)));
        ASSERT_TRUE(live.Apply(event).ok());
        ExpectGraphMatchesDefinition(live.universe(), live.graph());
        ASSERT_EQ(live.graph().Fingerprint(),
                  SimilarityGraph(live.universe(), OracleMeasure(ngram), floor)
                      .Fingerprint());
      }
    }
  }
}

// The live-universe maintenance contract: after every churn event, the
// incrementally patched similarity graph is byte-identical (same
// Fingerprint, which hashes offsets, attribute ids, names, edge targets and
// raw similarity bits) to a graph rebuilt from scratch over the mutated
// universe. Exercised across >= 50 seeded churn traces, on both the n-gram
// fast path and the generic-measure path.
TEST(SimilarityPropertyTest, PatchedGraphMatchesRebuildUnderChurn) {
  PropertyRunner runner("graph-patch-vs-rebuild", 50);
  for (int c = 0; c < runner.num_cases(); ++c) {
    SCOPED_TRACE(runner.Replay(c));
    Rng rng = runner.CaseRng(c);
    testkit::UniverseGenOptions gen;
    gen.min_sources = 5;
    gen.max_sources = 10;
    Universe universe = testkit::GenerateUniverse(rng, gen);

    ChurnFeedConfig config;
    config.seed = rng.Next64();
    config.events_per_sec = 2.0;
    config.horizon_ms = 8'000.0;  // ~16 events per trace
    ChurnTrace trace = GenerateChurnTrace(universe, config).value();

    // Alternate between the default 3-gram measure (precomputed n-gram
    // sets) and an edit-distance measure (generic path).
    const bool ngram = rng.Bernoulli(0.5);
    auto make_measure = [ngram]() -> std::unique_ptr<AttributeSimilarity> {
      if (ngram) return MakeDefaultSimilarity();
      return std::make_unique<LevenshteinSimilarity>();
    };
    LiveUniverse::Options live_options;
    live_options.similarity = make_measure();
    LiveUniverse live(CloneUniverse(universe), std::move(live_options));
    ASSERT_EQ(live.graph().Fingerprint(),
              SimilarityGraph(live.universe(), make_measure(), 0.25)
                  .Fingerprint());
    int step = 0;
    for (const ChurnEvent& event : trace.events) {
      SCOPED_TRACE("event " + std::to_string(step++) + " kind " +
                   std::to_string(static_cast<int>(event.kind)) + " source " +
                   std::to_string(event.source));
      ASSERT_TRUE(live.Apply(event).ok());
      SimilarityGraph rebuilt(live.universe(), make_measure(), 0.25);
      ASSERT_EQ(live.graph().Fingerprint(), rebuilt.Fingerprint());
    }
  }
}

}  // namespace
}  // namespace ube

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "text/ngram.h"
#include "text/similarity.h"
#include "util/rng.h"

namespace ube {
namespace {

// ------------------------------ NgramSet --------------------------------

TEST(NgramSetTest, EmptyText) {
  NgramSet s = NgramSet::Build("", 3);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
}

TEST(NgramSetTest, SingleCharWithPadding) {
  // "a" padded to "^^a^^" yields trigrams ^^a, ^a^, a^^ (3 distinct).
  NgramSet s = NgramSet::Build("a", 3);
  EXPECT_EQ(s.size(), 3u);
}

TEST(NgramSetTest, KnownTrigramCount) {
  // "abc" padded yields |text| + n - 1 = 5 trigrams, all distinct here.
  NgramSet s = NgramSet::Build("abc", 3);
  EXPECT_EQ(s.size(), 5u);
}

TEST(NgramSetTest, RepeatedGramsDeduplicated) {
  // "aaaa" padded: ^^a ^aa aaa aaa aa^ a^^ -> {^^a, ^aa, aaa, aa^, a^^} = 5.
  NgramSet s = NgramSet::Build("aaaa", 3);
  EXPECT_EQ(s.size(), 5u);
}

TEST(NgramSetTest, GramsAreSortedUnique) {
  NgramSet s = NgramSet::Build("publication year", 3);
  const auto& g = s.grams();
  for (size_t i = 1; i < g.size(); ++i) EXPECT_LT(g[i - 1], g[i]);
}

TEST(NgramSetTest, DifferentNProduceDifferentSets) {
  EXPECT_NE(NgramSet::Build("title", 2), NgramSet::Build("title", 3));
}

TEST(NgramSetTest, IntersectionAndUnion) {
  NgramSet a = NgramSet::Build("abc", 3);
  NgramSet b = NgramSet::Build("abc", 3);
  EXPECT_EQ(a.IntersectionSize(b), a.size());
  EXPECT_EQ(a.UnionSize(b), a.size());
  NgramSet c = NgramSet::Build("xyz", 3);
  EXPECT_EQ(a.IntersectionSize(c), 0u);
  EXPECT_EQ(a.UnionSize(c), a.size() + c.size());
}

TEST(NgramSetTest, JaccardIdentical) {
  NgramSet a = NgramSet::Build("author", 3);
  EXPECT_DOUBLE_EQ(a.Jaccard(a), 1.0);
}

TEST(NgramSetTest, JaccardBothEmpty) {
  NgramSet a, b;
  EXPECT_DOUBLE_EQ(a.Jaccard(b), 1.0);
}

TEST(NgramSetTest, JaccardOneEmpty) {
  NgramSet a = NgramSet::Build("author", 3);
  NgramSet b;
  EXPECT_DOUBLE_EQ(a.Jaccard(b), 0.0);
}

TEST(NgramJaccardTest, NormalizesBeforeComparing) {
  EXPECT_DOUBLE_EQ(NgramJaccard("Author_Name", "author  name"), 1.0);
}

TEST(NgramJaccardTest, PluralOfLongNameStaysHigh) {
  // This property is what makes θ = 0.75 discriminate long-name variants
  // from short-name variants (see workload design).
  EXPECT_GT(NgramJaccard("publication year", "publication years"), 0.75);
  EXPECT_LT(NgramJaccard("title", "titles"), 0.75);
}

TEST(NgramJaccardTest, CrossConceptPairsStayLow) {
  EXPECT_LT(NgramJaccard("book edition", "book condition"), 0.70);
  EXPECT_LT(NgramJaccard("author", "title"), 0.2);
}

TEST(NgramSetDeathTest, RejectsBadN) {
  EXPECT_DEATH(NgramSet::Build("x", 0), "n-gram size");
  EXPECT_DEATH(NgramSet::Build("x", 9), "n-gram size");
}

// --------------------------- Levenshtein --------------------------------

struct LevenshteinCase {
  const char* a;
  const char* b;
  size_t distance;
};

class LevenshteinParamTest : public ::testing::TestWithParam<LevenshteinCase> {
};

TEST_P(LevenshteinParamTest, Distance) {
  const LevenshteinCase& c = GetParam();
  EXPECT_EQ(LevenshteinDistance(c.a, c.b), c.distance);
  EXPECT_EQ(LevenshteinDistance(c.b, c.a), c.distance);  // symmetric
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LevenshteinParamTest,
    ::testing::Values(LevenshteinCase{"", "", 0},
                      LevenshteinCase{"", "abc", 3},
                      LevenshteinCase{"abc", "abc", 0},
                      LevenshteinCase{"kitten", "sitting", 3},
                      LevenshteinCase{"flaw", "lawn", 2},
                      LevenshteinCase{"book", "back", 2},
                      LevenshteinCase{"a", "b", 1},
                      LevenshteinCase{"intention", "execution", 5}));

TEST(LevenshteinSimilarityTest, IdenticalIsOne) {
  LevenshteinSimilarity sim;
  EXPECT_DOUBLE_EQ(sim.Score("author", "Author"), 1.0);  // normalized
}

TEST(LevenshteinSimilarityTest, CompletelyDifferentNearZero) {
  LevenshteinSimilarity sim;
  EXPECT_LT(sim.Score("abc", "xyz"), 0.01);
}

// ---------------- Properties shared by every measure --------------------

class SimilarityPropertyTest
    : public ::testing::TestWithParam<
          std::shared_ptr<AttributeSimilarity>> {};

TEST_P(SimilarityPropertyTest, ReflexiveSymmetricBounded) {
  const AttributeSimilarity& sim = *GetParam();
  const std::vector<std::string> names = {
      "title",  "book title",  "author",     "author name", "keyword",
      "isbn",   "price range", "publisher",  "binding",     "format",
      "a",      "",            "Pub_Year",   "pub year",    "ZIP code",
  };
  for (const std::string& a : names) {
    EXPECT_NEAR(sim.Score(a, a), 1.0, 1e-12) << sim.name() << " on " << a;
    for (const std::string& b : names) {
      double ab = sim.Score(a, b);
      double ba = sim.Score(b, a);
      EXPECT_NEAR(ab, ba, 1e-12) << sim.name() << " " << a << "/" << b;
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0 + 1e-12);
    }
  }
}

TEST_P(SimilarityPropertyTest, RandomStringsStayBounded) {
  const AttributeSimilarity& sim = *GetParam();
  Rng rng(77);
  auto random_name = [&]() {
    std::string s;
    int len = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.UniformInt(26)));
      if (rng.Bernoulli(0.15)) s.push_back(' ');
    }
    return s;
  };
  for (int i = 0; i < 60; ++i) {
    std::string a = random_name();
    std::string b = random_name();
    double score = sim.Score(a, b);
    EXPECT_GE(score, 0.0) << sim.name() << " '" << a << "' '" << b << "'";
    EXPECT_LE(score, 1.0 + 1e-12);
    EXPECT_NEAR(score, sim.Score(b, a), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, SimilarityPropertyTest,
    ::testing::Values(std::make_shared<NgramJaccardSimilarity>(3),
                      std::make_shared<NgramJaccardSimilarity>(2),
                      std::make_shared<LevenshteinSimilarity>()),
    [](const ::testing::TestParamInfo<
        std::shared_ptr<AttributeSimilarity>>& info) {
      std::string name(info.param->name());
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(info.index);
    });

TEST(DefaultSimilarityTest, IsTrigramJaccard) {
  std::unique_ptr<AttributeSimilarity> sim = MakeDefaultSimilarity();
  EXPECT_EQ(sim->name(), "ngram-jaccard");
  EXPECT_DOUBLE_EQ(sim->Score("title", "title"), 1.0);
  auto* ngram = dynamic_cast<NgramJaccardSimilarity*>(sim.get());
  ASSERT_NE(ngram, nullptr);
  EXPECT_EQ(ngram->n(), 3);
}

}  // namespace
}  // namespace ube

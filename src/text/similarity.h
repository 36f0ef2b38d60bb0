#ifndef UBE_TEXT_SIMILARITY_H_
#define UBE_TEXT_SIMILARITY_H_

#include <memory>
#include <string>
#include <string_view>

namespace ube {

/// Pairwise attribute-name similarity measure in [0, 1].
///
/// µBE "can use any attribute similarity measure, whether it is schema based
/// or data based" (Section 3); the matcher is parameterized on this
/// interface. Implementations must be symmetric and return 1 for identical
/// inputs. All built-in measures normalize names with
/// NormalizeAttributeName before comparing.
class AttributeSimilarity {
 public:
  virtual ~AttributeSimilarity() = default;

  /// Similarity of the two attribute names, in [0, 1].
  virtual double Score(std::string_view a, std::string_view b) const = 0;

  /// Short identifier for diagnostics ("ngram-jaccard", "levenshtein", ...).
  virtual std::string_view name() const = 0;
};

/// The paper's measure: Jaccard coefficient over character n-grams
/// (default n = 3).
class NgramJaccardSimilarity final : public AttributeSimilarity {
 public:
  explicit NgramJaccardSimilarity(int n = 3) : n_(n) {}
  double Score(std::string_view a, std::string_view b) const override;
  std::string_view name() const override { return "ngram-jaccard"; }
  int n() const { return n_; }

 private:
  int n_;
};

/// Normalized Levenshtein similarity: 1 - dist(a, b) / max(|a|, |b|).
class LevenshteinSimilarity final : public AttributeSimilarity {
 public:
  double Score(std::string_view a, std::string_view b) const override;
  std::string_view name() const override { return "levenshtein"; }
};

/// Raw edit distance (exposed for tests and for users building their own
/// measures).
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// Factory for the paper's default measure (3-gram Jaccard).
std::unique_ptr<AttributeSimilarity> MakeDefaultSimilarity();

}  // namespace ube

#endif  // UBE_TEXT_SIMILARITY_H_

#ifndef UBE_TEXT_NGRAM_H_
#define UBE_TEXT_NGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ube {

/// A set of character n-grams, packed into sorted unique 64-bit codes so
/// that set intersection/union run in O(|a| + |b|) over sorted vectors.
///
/// The paper measures attribute similarity as "the Jaccard similarity
/// coefficient between the 3-grams in the attribute names" (Section 3);
/// NgramSet is the precomputed per-name representation the similarity graph
/// indexes and scores.
class NgramSet {
 public:
  NgramSet() = default;

  /// Builds the n-gram set of `text` (n in [1, 8]). The text is used as-is;
  /// callers normally pass NormalizeAttributeName(name). Following common
  /// practice (and making 1-2 character names meaningful), the text is
  /// padded with (n-1) sentinel characters on each side before extraction.
  static NgramSet Build(std::string_view text, int n = 3);

  /// Number of distinct n-grams.
  size_t size() const { return grams_.size(); }
  bool empty() const { return grams_.empty(); }

  /// Size of the intersection with `other`.
  size_t IntersectionSize(const NgramSet& other) const;

  /// Size of the union with `other`.
  size_t UnionSize(const NgramSet& other) const;

  /// Jaccard coefficient |A ∩ B| / |A ∪ B|; 1.0 when both sets are empty
  /// (two empty names are identical), 0.0 when exactly one is empty.
  double Jaccard(const NgramSet& other) const;

  const std::vector<uint64_t>& grams() const { return grams_; }

  friend bool operator==(const NgramSet& a, const NgramSet& b) {
    return a.grams_ == b.grams_;
  }

 private:
  std::vector<uint64_t> grams_;  // sorted, unique
};

/// Jaccard coefficient of two sets from their sizes and the size of their
/// intersection: |A ∩ B| / (|A| + |B| − |A ∩ B|), 1.0 when both are empty.
/// NgramSet::Jaccard and the similarity graph's shared-gram counting both
/// score through this one formula.
double JaccardFromCounts(size_t intersection, size_t size_a, size_t size_b);

/// Convenience: Jaccard over n-grams of two raw strings (each normalized by
/// NormalizeAttributeName first).
double NgramJaccard(std::string_view a, std::string_view b, int n = 3);

}  // namespace ube

#endif  // UBE_TEXT_NGRAM_H_

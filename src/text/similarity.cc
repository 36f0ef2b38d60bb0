#include "text/similarity.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "text/ngram.h"
#include "util/strings.h"

namespace ube {

double NgramJaccardSimilarity::Score(std::string_view a,
                                     std::string_view b) const {
  return NgramJaccard(a, b, n_);
}

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  // a is the shorter string; O(|a|) memory.
  std::vector<size_t> row(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    size_t prev_diag = row[0];
    row[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t cur = row[i];
      size_t subst = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, subst});
      prev_diag = cur;
    }
  }
  return row[a.size()];
}

double LevenshteinSimilarity::Score(std::string_view a,
                                    std::string_view b) const {
  std::string na = NormalizeAttributeName(a);
  std::string nb = NormalizeAttributeName(b);
  if (na.empty() && nb.empty()) return 1.0;
  size_t longest = std::max(na.size(), nb.size());
  size_t dist = LevenshteinDistance(na, nb);
  return 1.0 - static_cast<double>(dist) / static_cast<double>(longest);
}

std::unique_ptr<AttributeSimilarity> MakeDefaultSimilarity() {
  return std::make_unique<NgramJaccardSimilarity>(3);
}

}  // namespace ube

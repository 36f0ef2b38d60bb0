#include "text/ngram.h"

#include <algorithm>

#include "util/check.h"
#include "util/strings.h"

namespace ube {

namespace {

// Sentinel byte used for padding; cannot appear in normalized names.
constexpr char kPad = '\x01';

}  // namespace

NgramSet NgramSet::Build(std::string_view text, int n) {
  UBE_CHECK(n >= 1 && n <= 8, "n-gram size must be in [1, 8]");
  NgramSet out;
  if (text.empty()) return out;

  std::string padded;
  padded.reserve(text.size() + 2 * (n - 1));
  padded.append(static_cast<size_t>(n - 1), kPad);
  padded.append(text);
  padded.append(static_cast<size_t>(n - 1), kPad);

  out.grams_.reserve(padded.size());
  for (size_t i = 0; i + n <= padded.size(); ++i) {
    uint64_t code = 0;
    for (int j = 0; j < n; ++j) {
      code = (code << 8) | static_cast<unsigned char>(padded[i + j]);
    }
    out.grams_.push_back(code);
  }
  std::sort(out.grams_.begin(), out.grams_.end());
  out.grams_.erase(std::unique(out.grams_.begin(), out.grams_.end()),
                   out.grams_.end());
  return out;
}

size_t NgramSet::IntersectionSize(const NgramSet& other) const {
  size_t count = 0;
  auto a = grams_.begin();
  auto b = other.grams_.begin();
  while (a != grams_.end() && b != other.grams_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

size_t NgramSet::UnionSize(const NgramSet& other) const {
  return grams_.size() + other.grams_.size() - IntersectionSize(other);
}

double NgramSet::Jaccard(const NgramSet& other) const {
  return JaccardFromCounts(IntersectionSize(other), grams_.size(),
                           other.grams_.size());
}

double JaccardFromCounts(size_t intersection, size_t size_a, size_t size_b) {
  const size_t uni = size_a + size_b - intersection;
  if (uni == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

double NgramJaccard(std::string_view a, std::string_view b, int n) {
  NgramSet sa = NgramSet::Build(NormalizeAttributeName(a), n);
  NgramSet sb = NgramSet::Build(NormalizeAttributeName(b), n);
  return sa.Jaccard(sb);
}

}  // namespace ube

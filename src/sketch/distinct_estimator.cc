#include "sketch/distinct_estimator.h"

#include "util/check.h"

namespace ube {

void PcsaSignature::MergeFrom(const DistinctSignature& other) {
  const auto* pcsa = dynamic_cast<const PcsaSignature*>(&other);
  UBE_CHECK(pcsa != nullptr, "PcsaSignature can only merge PcsaSignature");
  sketch_.Merge(pcsa->sketch_);
}

void ExactSignature::MergeFrom(const DistinctSignature& other) {
  const auto* exact = dynamic_cast<const ExactSignature*>(&other);
  UBE_CHECK(exact != nullptr, "ExactSignature can only merge ExactSignature");
  ids_.insert(exact->ids_.begin(), exact->ids_.end());
}

std::string SignatureFormat(const DistinctSignature& signature) {
  if (const auto* pcsa = dynamic_cast<const PcsaSignature*>(&signature)) {
    return "pcsa:" + std::to_string(pcsa->sketch().num_bitmaps());
  }
  return "exact";
}

std::unique_ptr<DistinctSignature> MakeSignature(SignatureKind kind,
                                                 int pcsa_bitmaps) {
  switch (kind) {
    case SignatureKind::kPcsa:
      return std::make_unique<PcsaSignature>(pcsa_bitmaps);
    case SignatureKind::kExact:
      return std::make_unique<ExactSignature>();
  }
  UBE_CHECK(false, "unknown SignatureKind");
  return nullptr;
}

}  // namespace ube

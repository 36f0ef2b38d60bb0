#ifndef UBE_SKETCH_DISTINCT_ESTIMATOR_H_
#define UBE_SKETCH_DISTINCT_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sketch/pcsa.h"

namespace ube {

/// A per-source summary from which the cardinality of unions of sources can
/// be estimated. Two implementations:
///  - PcsaSignature: the paper's mechanism (Section 4), constant size.
///  - ExactSignature: stores the id set; used in tests and in the accuracy
///    bench that reproduces the "worst case error of 7%" comparison.
///
/// Both are mergeable with the same union semantics, so the coverage /
/// redundancy QEFs are written once against this interface.
class DistinctSignature {
 public:
  virtual ~DistinctSignature() = default;

  /// Observes one tuple id.
  virtual void Add(uint64_t id) = 0;
  /// Estimated (or exact) number of distinct ids observed.
  virtual double Estimate() const = 0;
  /// Merges `other` into this signature (set-union semantics). Implementations
  /// may UBE_CHECK that `other` has the same concrete type/configuration.
  virtual void MergeFrom(const DistinctSignature& other) = 0;
  /// Deep copy preserving the concrete type.
  virtual std::unique_ptr<DistinctSignature> Clone() const = 0;
  /// Approximate memory footprint in bytes.
  virtual size_t SizeBytes() const = 0;
};

/// PCSA-backed signature (the realistic, constant-space implementation).
class PcsaSignature final : public DistinctSignature {
 public:
  explicit PcsaSignature(int num_bitmaps = 64) : sketch_(num_bitmaps) {}
  explicit PcsaSignature(PcsaSketch sketch) : sketch_(std::move(sketch)) {}

  void Add(uint64_t id) override { sketch_.AddHash(id); }
  double Estimate() const override { return sketch_.Estimate(); }
  void MergeFrom(const DistinctSignature& other) override;
  std::unique_ptr<DistinctSignature> Clone() const override {
    return std::make_unique<PcsaSignature>(sketch_);
  }
  size_t SizeBytes() const override { return sketch_.SizeBytes(); }

  const PcsaSketch& sketch() const { return sketch_; }

 private:
  PcsaSketch sketch_;
};

/// Exact signature storing the distinct id set. Linear space — only for
/// tests, small examples and accuracy baselines.
class ExactSignature final : public DistinctSignature {
 public:
  ExactSignature() = default;

  void Add(uint64_t id) override { ids_.insert(id); }
  double Estimate() const override { return static_cast<double>(ids_.size()); }
  void MergeFrom(const DistinctSignature& other) override;
  std::unique_ptr<DistinctSignature> Clone() const override {
    return std::make_unique<ExactSignature>(*this);
  }
  size_t SizeBytes() const override { return ids_.size() * sizeof(uint64_t); }

  const std::unordered_set<uint64_t>& ids() const { return ids_; }

 private:
  std::unordered_set<uint64_t> ids_;
};

/// "pcsa:<bitmaps>" or "exact": the part of a signature that must agree
/// across a universe, because the union estimate merges every member's
/// signature into one (MergeFrom aborts on a mismatch). The catalog parser
/// and LiveUniverse's add events check new signatures against it.
std::string SignatureFormat(const DistinctSignature& signature);

/// Factory the workload generator and examples use to pick the signature
/// implementation uniformly.
enum class SignatureKind { kPcsa, kExact };

std::unique_ptr<DistinctSignature> MakeSignature(SignatureKind kind,
                                                 int pcsa_bitmaps = 64);

}  // namespace ube

#endif  // UBE_SKETCH_DISTINCT_ESTIMATOR_H_

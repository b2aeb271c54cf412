#ifndef SOFIA_TENSOR_MASK_H_
#define SOFIA_TENSOR_MASK_H_

#include <cstdint>
#include <vector>

#include "tensor/dense_tensor.hpp"
#include "tensor/shape.hpp"

/// \file mask.hpp
/// \brief Observation indicator tensors (the `Ω` of Definition 3).

namespace sofia {

/// Binary indicator over a tensor shape marking which entries are observed.
class Mask {
 public:
  Mask() = default;
  /// All-observed (if `observed`) or all-missing mask of the given shape.
  explicit Mask(Shape shape, bool observed = true);

  const Shape& shape() const { return shape_; }

  bool Get(size_t linear) const { return bits_[linear] != 0; }
  void Set(size_t linear, bool observed) {
    bits_[linear] = observed ? 1 : 0;
    count_ = kCountUnknown;
    hash_valid_ = false;
  }

  bool At(const std::vector<size_t>& idx) const {
    return Get(shape_.Linearize(idx));
  }

  /// Number of observed entries (|Ω|). Computed once and cached; any Set()
  /// invalidates the cache, so repeated counts on a frozen mask are O(1).
  size_t CountObserved() const;

  /// Fraction of observed entries in [0, 1].
  double ObservedFraction() const;

  /// Linear indices of all observed entries, ascending.
  std::vector<size_t> ObservedIndices() const;

  /// Ω ⊛ T: zero out unobserved entries of a tensor (shape-checked copy).
  DenseTensor Apply(const DenseTensor& t) const;

  /// Frobenius norm of Ω ⊛ T without materializing the product.
  double MaskedFrobeniusNorm(const DenseTensor& t) const;

  /// Stack (N-1)-way masks along a new trailing temporal mode.
  static Mask StackSlices(const std::vector<Mask>& slices);

  /// Slice of the trailing mode (mirrors DenseTensor::SliceLastMode).
  Mask SliceLastMode(size_t t) const;

  /// 64-bit hash of the observed set (FNV-1a over the indicator bytes).
  /// Computed once and cached; any Set() invalidates the cache. Equal masks
  /// always hash equal; unequal masks collide with probability ~2^-64.
  /// The operator== fast path below only fires when *both* sides carry a
  /// cached hash, so producers of long-lived masks should prime it once at
  /// construction time (the corruption stream builders do).
  uint64_t ContentHash() const;

  /// Same shape and same observed set. Two O(1) rejects run before the
  /// element scan whenever both sides carry the corresponding cache:
  /// unequal observed counts (any prior CountObserved() on a frozen mask),
  /// then unequal content hashes (any prior ContentHash()) — so masks that
  /// differ only near the end of the index space, which the count check
  /// cannot separate, still reject without the almost-full byte scan. Only
  /// masks that actually match (or collide, ~2^-64) pay the byte compare.
  bool operator==(const Mask& other) const;
  bool operator!=(const Mask& other) const { return !(*this == other); }

  /// Process-wide count of full byte-scan equality compares (the O(volume)
  /// fallback of operator==). The steady-state streaming loops never
  /// compare dense masks — their caches hold the CooList built from the
  /// last mask and check reuse with CooList::Matches — so this must stay
  /// flat; test-pinned in
  /// tests/csf_test.cc, mirroring StepResult::materializations().
  static size_t deep_equality_scans();
  static void ResetDeepEqualityScans();

 private:
  /// Sentinel for "observed count not computed yet".
  static constexpr size_t kCountUnknown = static_cast<size_t>(-1);

  Shape shape_;
  std::vector<uint8_t> bits_;
  mutable size_t count_ = kCountUnknown;  ///< CountObserved() cache.
  mutable uint64_t hash_ = 0;             ///< ContentHash() cache.
  mutable bool hash_valid_ = false;
};

}  // namespace sofia

#endif  // SOFIA_TENSOR_MASK_H_

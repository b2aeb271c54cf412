#include "tensor/coo_list.hpp"

#include <limits>

#include "util/check.hpp"

namespace sofia {

namespace {

/// Bucket records by their mode-n index with a stable counting sort, so
/// each bucket preserves ascending linear order.
void BucketMode(const CooList& coo, size_t n, std::vector<size_t>* ptr,
                std::vector<uint32_t>* ord) {
  const size_t dim = coo.shape().dim(n);
  const size_t nnz = coo.nnz();
  ord->resize(nnz);
  if (n == coo.order() - 1) {
    // The last mode has the largest stride, so records in ascending linear
    // order already ascend in it: the stable sort is the identity, and
    // each offset is where the walk first reaches its slice.
    ptr->resize(dim + 1);
    size_t filled = 0;  // Offsets [0, filled] are final.
    (*ptr)[0] = 0;
    for (size_t k = 0; k < nnz; ++k) {
      (*ord)[k] = static_cast<uint32_t>(k);
      const size_t s = coo.Index(k, n);
      while (filled < s) (*ptr)[++filled] = k;
    }
    while (filled < dim) (*ptr)[++filled] = nnz;
    return;
  }
  ptr->assign(dim + 1, 0);
  for (size_t k = 0; k < nnz; ++k) ++(*ptr)[coo.Index(k, n) + 1];
  for (size_t s = 0; s < dim; ++s) (*ptr)[s + 1] += (*ptr)[s];
  std::vector<size_t> fill(ptr->begin(), ptr->end() - 1);
  for (size_t k = 0; k < nnz; ++k) {
    (*ord)[fill[coo.Index(k, n)]++] = static_cast<uint32_t>(k);
  }
}

}  // namespace

CooList CooList::Build(const Mask& omega, bool with_mode_buckets) {
  const Shape& shape = omega.shape();
  CooList coo;
  coo.shape_ = shape;
  coo.order_ = shape.order();
  const size_t order = coo.order_;
  SOFIA_CHECK_GT(order, 0u);
  const size_t nnz = omega.CountObserved();
  coo.CheckIndexWidths(nnz);

  // One branchless pass over the mask bits. Every candidate writes its
  // linear index and mode-0 coordinate into the next free record slot, and
  // the cursor advances only on a hit, so a miss is overwritten by the next
  // candidate. One slack slot takes the write after the last hit. Rows
  // (runs of mode 0) share their higher coordinates, which an odometer
  // advances per row and copies onto the row's hits afterwards — no
  // record pays a division.
  const size_t volume = shape.NumElements();
  coo.linear_.resize(nnz + 1);
  coo.coords_.resize((nnz + 1) * order);
  size_t* linear = coo.linear_.data();
  uint32_t* coords = coo.coords_.data();
  const size_t row_len = shape.dim(0);
  std::vector<uint32_t> high(order, 0);  // Odometer over modes 1..N-1.
  size_t out = 0;
  for (size_t base = 0; base < volume; base += row_len) {
    const size_t row_begin = out;
    for (size_t i = 0; i < row_len; ++i) {
      linear[out] = base + i;
      coords[out * order] = static_cast<uint32_t>(i);
      out += omega.Get(base + i) ? 1 : 0;
    }
    for (size_t k = row_begin; k < out; ++k) {
      for (size_t n = 1; n < order; ++n) coords[k * order + n] = high[n];
    }
    for (size_t n = 1; n < order && ++high[n] == shape.dim(n); ++n) {
      high[n] = 0;
    }
  }
  SOFIA_CHECK_EQ(out, nnz);
  coo.linear_.resize(nnz);
  coo.coords_.resize(nnz * order);
  if (with_mode_buckets) coo.BucketAllModes();
  return coo;
}

CooList CooList::FromIndices(const Shape& shape, std::vector<size_t> sorted,
                             bool with_mode_buckets) {
  CooList coo;
  coo.shape_ = shape;
  coo.order_ = shape.order();
  SOFIA_CHECK_GT(coo.order_, 0u);
  coo.linear_ = std::move(sorted);
  if (!coo.linear_.empty()) {
    SOFIA_CHECK_LT(coo.linear_.back(), shape.NumElements());
    for (size_t k = 1; k < coo.linear_.size(); ++k) {
      SOFIA_CHECK_LT(coo.linear_[k - 1], coo.linear_[k])
          << "CooList indices must be strictly ascending";
    }
  }
  const size_t nnz = coo.linear_.size();
  coo.CheckIndexWidths(nnz);
  coo.coords_.resize(nnz * coo.order_);
  for (size_t k = 0; k < nnz; ++k) {
    size_t rest = coo.linear_[k];
    uint32_t* out = &coo.coords_[k * coo.order_];
    for (size_t n = coo.order_; n-- > 0;) {
      const size_t i = rest / shape.stride(n);
      rest -= i * shape.stride(n);
      out[n] = static_cast<uint32_t>(i);
    }
  }
  if (with_mode_buckets) coo.BucketAllModes();
  return coo;
}

void CooList::CheckIndexWidths(size_t nnz) const {
  for (size_t n = 0; n < order_; ++n) {
    SOFIA_CHECK_LT(shape_.dim(n), std::numeric_limits<uint32_t>::max())
        << "CooList coordinates are 32-bit";
  }
  SOFIA_CHECK_LT(nnz, std::numeric_limits<uint32_t>::max())
      << "CooList record indices are 32-bit";
}

void CooList::BucketAllModes() {
  mode_order_.resize(order_);
  slice_ptr_.resize(order_);
  for (size_t n = 0; n < order_; ++n) {
    BucketMode(*this, n, &slice_ptr_[n], &mode_order_[n]);
  }
}

CooList CooList::BuildForMode(const Mask& omega, size_t mode) {
  CooList coo = Build(omega, /*with_mode_buckets=*/false);
  SOFIA_CHECK_LT(mode, coo.order_);
  coo.mode_order_.resize(coo.order_);
  coo.slice_ptr_.resize(coo.order_);
  BucketMode(coo, mode, &coo.slice_ptr_[mode], &coo.mode_order_[mode]);
  return coo;
}

bool CooList::Matches(const Mask& omega) const {
  if (!(shape_ == omega.shape())) return false;
  if (omega.CountObserved() != linear_.size()) return false;
  for (size_t idx : linear_) {
    if (!omega.Get(idx)) return false;
  }
  return true;
}

std::vector<double> CooList::Gather(const DenseTensor& x) const {
  std::vector<double> values;
  GatherInto(x, &values);
  return values;
}

void CooList::GatherInto(const DenseTensor& x,
                         std::vector<double>* values) const {
  SOFIA_CHECK(x.shape() == shape_);
  values->resize(nnz());
  for (size_t k = 0; k < linear_.size(); ++k) (*values)[k] = x[linear_[k]];
}

std::vector<double> CooList::GatherResidual(const DenseTensor& y,
                                            const DenseTensor& o) const {
  SOFIA_CHECK(y.shape() == shape_);
  SOFIA_CHECK(o.shape() == shape_);
  std::vector<double> values(nnz());
  for (size_t k = 0; k < linear_.size(); ++k) {
    values[k] = y[linear_[k]] - o[linear_[k]];
  }
  return values;
}

}  // namespace sofia

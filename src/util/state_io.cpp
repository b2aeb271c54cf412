#include "util/state_io.hpp"

#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>

namespace sofia {
namespace state_io {

// The byte layout is little-endian IEEE-754: raw blocks are written with
// one memcpy-equivalent `write`, never converted.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "state_io writes the host byte order, which must be "
              "little-endian");
static_assert(std::numeric_limits<double>::is_iec559 && sizeof(double) == 8,
              "state_io stores doubles as IEEE-754 binary64");
static_assert(sizeof(size_t) == sizeof(uint64_t),
              "mask indices are written as raw u64 blocks");

namespace {

void WriteBytes(std::ostream& out, const void* data, size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
}

void ReadBytes(std::istream& in, void* data, size_t bytes) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  Require(static_cast<size_t>(in.gcount()) == bytes,
          "truncated checkpoint");
}

/// Throws unless a seekable stream still holds `bytes` more bytes, so a
/// corrupt-but-capped count never allocates past the end of its input. A
/// stream that cannot seek passes; its short read throws afterwards.
void RequireBytesLeft(std::istream& in, size_t bytes) {
  std::streambuf* buf = in.rdbuf();
  const std::streampos here =
      buf->pubseekoff(0, std::ios_base::cur, std::ios_base::in);
  if (here == std::streampos(-1)) return;
  const std::streampos end =
      buf->pubseekoff(0, std::ios_base::end, std::ios_base::in);
  buf->pubseekpos(here, std::ios_base::in);
  if (end == std::streampos(-1)) return;
  Require(static_cast<uint64_t>(end - here) >= bytes, "truncated checkpoint");
}

/// Reads an order-prefixed dimension list; the volume stays under the cap.
std::vector<size_t> ReadDims(std::istream& in) {
  const size_t order = ReadCount(in, /*cap=*/16);
  std::vector<size_t> dims(order);
  size_t volume = 1;
  for (size_t& d : dims) {
    d = ReadCount(in, kMaxStateElements);
    Require(d == 0 || volume <= kMaxStateElements / d,
            "corrupt checkpoint (shape)");
    volume *= d;
  }
  return dims;
}

}  // namespace

void BeginState(std::ostream& out, const char* tag, uint32_t version) {
  const uint64_t length = std::strlen(tag);
  WriteU64(out, length);
  WriteBytes(out, tag, length);
  WriteBytes(out, &version, sizeof(version));
}

void ReadStateHeader(std::istream& in, const char* tag, uint32_t version) {
  const std::string expected(tag);
  const std::string not_tag = "not a " + expected + " checkpoint";
  uint64_t length = 0;
  in.read(reinterpret_cast<char*>(&length), sizeof(length));
  if (static_cast<size_t>(in.gcount()) != sizeof(length) ||
      length != expected.size()) {
    throw StateError(not_tag);
  }
  std::string got(expected.size(), '\0');
  in.read(&got[0], static_cast<std::streamsize>(got.size()));
  if (static_cast<size_t>(in.gcount()) != got.size() || got != expected) {
    throw StateError(not_tag);
  }
  uint32_t got_version = 0;
  ReadBytes(in, &got_version, sizeof(got_version));
  if (got_version != version) {
    throw StateError(expected + " checkpoint version " +
                     std::to_string(got_version) + " unsupported (want " +
                     std::to_string(version) + ")");
  }
}

void WriteU64(std::ostream& out, uint64_t v) { WriteBytes(out, &v, 8); }

uint64_t ReadU64(std::istream& in) {
  uint64_t v = 0;
  ReadBytes(in, &v, 8);
  return v;
}

size_t ReadCount(std::istream& in, size_t cap) {
  const uint64_t n = ReadU64(in);
  Require(n <= cap, "corrupt checkpoint (count)");
  return static_cast<size_t>(n);
}

void WriteDouble(std::ostream& out, double v) { WriteBytes(out, &v, 8); }

double ReadDouble(std::istream& in) {
  double v = 0.0;
  ReadBytes(in, &v, 8);
  return v;
}

void WriteBool(std::ostream& out, bool v) {
  const uint8_t byte = v ? 1 : 0;
  WriteBytes(out, &byte, 1);
}

bool ReadBool(std::istream& in) {
  uint8_t byte = 0;
  ReadBytes(in, &byte, 1);
  Require(byte <= 1, "corrupt checkpoint (bool)");
  return byte == 1;
}

void WriteVector(std::ostream& out, const std::vector<double>& v) {
  WriteU64(out, v.size());
  WriteBytes(out, v.data(), v.size() * sizeof(double));
}

std::vector<double> ReadVector(std::istream& in) {
  const size_t n = ReadCount(in, kMaxStateElements);
  RequireBytesLeft(in, n * sizeof(double));
  std::vector<double> v(n);
  ReadBytes(in, v.data(), n * sizeof(double));
  return v;
}

void WriteMatrix(std::ostream& out, const Matrix& m) {
  WriteU64(out, m.rows());
  WriteU64(out, m.cols());
  WriteBytes(out, m.data(), m.size() * sizeof(double));
}

Matrix ReadMatrix(std::istream& in) {
  const size_t rows = ReadCount(in, kMaxStateElements);
  const size_t cols = ReadCount(in, kMaxStateElements);
  Require(rows == 0 || cols <= kMaxStateElements / rows,
          "corrupt checkpoint (matrix)");
  RequireBytesLeft(in, rows * cols * sizeof(double));
  Matrix m(rows, cols);
  ReadBytes(in, m.data(), m.size() * sizeof(double));
  return m;
}

void WriteMatrixList(std::ostream& out, const std::vector<Matrix>& ms) {
  WriteU64(out, ms.size());
  for (const Matrix& m : ms) WriteMatrix(out, m);
}

std::vector<Matrix> ReadMatrixList(std::istream& in) {
  const size_t n = ReadCount(in, /*cap=*/4096);
  std::vector<Matrix> ms;
  ms.reserve(n);
  for (size_t i = 0; i < n; ++i) ms.push_back(ReadMatrix(in));
  return ms;
}

void WriteTensor(std::ostream& out, const DenseTensor& t) {
  WriteShape(out, t.shape());
  WriteBytes(out, t.data(), t.NumElements() * sizeof(double));
}

DenseTensor ReadTensor(std::istream& in) {
  Shape shape(ReadDims(in));
  RequireBytesLeft(in, shape.NumElements() * sizeof(double));
  DenseTensor t(std::move(shape));
  ReadBytes(in, t.data(), t.NumElements() * sizeof(double));
  return t;
}

void WriteShape(std::ostream& out, const Shape& shape) {
  WriteU64(out, shape.order());
  for (size_t n = 0; n < shape.order(); ++n) WriteU64(out, shape.dim(n));
}

Shape ReadShape(std::istream& in) { return Shape(ReadDims(in)); }

void WriteMask(std::ostream& out, const Mask& mask) {
  WriteShape(out, mask.shape());
  const std::vector<size_t> observed = mask.ObservedIndices();
  WriteU64(out, observed.size());
  WriteBytes(out, observed.data(), observed.size() * sizeof(uint64_t));
}

Mask ReadMask(std::istream& in) {
  const Shape shape = ReadShape(in);
  const size_t nnz = ReadCount(in, shape.NumElements());
  RequireBytesLeft(in, nnz * sizeof(uint64_t));
  std::vector<uint64_t> observed(nnz);
  ReadBytes(in, observed.data(), nnz * sizeof(uint64_t));
  Mask mask(shape, /*observed=*/false);
  for (size_t i = 0; i < nnz; ++i) {
    // Strictly ascending and in range, exactly as WriteMask emits them.
    Require(observed[i] < shape.NumElements() &&
                (i == 0 || observed[i] > observed[i - 1]),
            "corrupt checkpoint (mask index)");
    mask.Set(observed[i], true);
  }
  return mask;
}

}  // namespace state_io
}  // namespace sofia

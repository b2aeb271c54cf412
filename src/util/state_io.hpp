#ifndef SOFIA_UTIL_STATE_IO_H_
#define SOFIA_UTIL_STATE_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "tensor/shape.hpp"

/// \file state_io.hpp
/// \brief The one byte format behind every checkpoint: StreamingMethod::
/// SaveState/RestoreState, SofiaModel::Serialize/Deserialize, StreamGuard's
/// in-memory ring and DurableGuard's on-disk snapshots.
///
/// Layout (little-endian, no padding, fields written one by one so the
/// bytes are a pure function of the state):
///  - header: u64 tag length, the tag bytes, u32 version;
///  - counts and integers: u64;
///  - doubles: raw IEEE-754 binary64, so a restored method continues the
///    stream bit-for-bit; a vector, matrix or tensor is a count/shape
///    prefix plus one contiguous block of doubles;
///  - bools: one byte, 0 or 1.
/// Only this file knows the layout; every checkpoint writer composes these
/// primitives.
///
/// Readers throw StateError (never abort, never construct partial state) on
/// truncated or malformed input. Checkpoints cross a disk boundary: a
/// truncated file, a torn write, or a flipped bit is an *environment*
/// fault the durability layer must recover from by falling back to an
/// older generation — which it can only do if the parse failure surfaces
/// as a catchable error rather than a process abort. Every count is
/// capped before any allocation (by kMaxStateElements and, on a seekable
/// stream, by the bytes actually left), so a bit-flipped count reads as
/// "corrupt checkpoint", not a multi-gigabyte allocation. There is no
/// checksum here: on-disk snapshots carry the util/durable_io frame CRC,
/// and the in-memory ring never crosses a disk.

namespace sofia {
namespace state_io {

/// Thrown by every reader on malformed input. Deliberately a distinct type
/// (not SOFIA_CHECK abort): restore-from-disk is a recoverable operation,
/// and callers (StreamGuard, DurableGuard, recovery tools) catch this to
/// fall back to an older checkpoint generation.
class StateError : public std::runtime_error {
 public:
  explicit StateError(const std::string& what) : std::runtime_error(what) {}
};

/// Throws StateError unless `ok`. The message should name the structure
/// being parsed ("corrupt checkpoint (matrix)").
inline void Require(bool ok, const char* what) {
  if (!ok) throw StateError(what);
}

/// Plausibility cap applied to every size field before allocation:
/// 2^28 doubles = 2 GiB, far above any real checkpoint and far below what
/// a flipped high bit in a count would request.
constexpr size_t kMaxStateElements = size_t{1} << 28;

/// Writes the tag + version header that opens every checkpoint.
void BeginState(std::ostream& out, const char* tag, uint32_t version);
/// Reads the header written by BeginState; throws StateError unless it
/// names `tag` at exactly `version`.
void ReadStateHeader(std::istream& in, const char* tag, uint32_t version);

void WriteU64(std::ostream& out, uint64_t v);
uint64_t ReadU64(std::istream& in);
/// Reads a u64 count and throws StateError when it exceeds `cap`.
size_t ReadCount(std::istream& in, size_t cap);

void WriteDouble(std::ostream& out, double v);
double ReadDouble(std::istream& in);

void WriteBool(std::ostream& out, bool v);
/// Throws StateError on any byte other than 0 or 1.
bool ReadBool(std::istream& in);

void WriteVector(std::ostream& out, const std::vector<double>& v);
std::vector<double> ReadVector(std::istream& in);

void WriteMatrix(std::ostream& out, const Matrix& m);
Matrix ReadMatrix(std::istream& in);

/// Count-prefixed list of matrices (the factor set of a CP method).
void WriteMatrixList(std::ostream& out, const std::vector<Matrix>& ms);
std::vector<Matrix> ReadMatrixList(std::istream& in);

void WriteTensor(std::ostream& out, const DenseTensor& t);
DenseTensor ReadTensor(std::istream& in);

void WriteShape(std::ostream& out, const Shape& shape);
Shape ReadShape(std::istream& in);

/// Masks serialize as the shape plus the ascending observed linear indices
/// (u64 each): O(|Ω|) bytes instead of one per entry.
void WriteMask(std::ostream& out, const Mask& mask);
Mask ReadMask(std::istream& in);

/// streambuf that appends straight into a caller-owned string. Checkpoint
/// buffers (StreamGuard's ring slots, DurableGuard's snapshot buffer) pass
/// their string here so a save serializes in place and reuses its
/// capacity, instead of an ostringstream + `str()` copy per save.
class StringSink : public std::streambuf {
 public:
  explicit StringSink(std::string* out) : out_(out) {}

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      out_->push_back(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_->append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  std::string* out_;
};

}  // namespace state_io
}  // namespace sofia

#endif  // SOFIA_UTIL_STATE_IO_H_

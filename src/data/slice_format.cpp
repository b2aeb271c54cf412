#include "data/slice_format.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/check.hpp"
#include "util/durable_io.hpp"
#include "util/fault_injection.hpp"

namespace sofia {
namespace slicefmt {

namespace {

constexpr uint32_t kFileMagic = 0x4C534653u;    // "SFSL"
constexpr uint32_t kRecordMagic = 0x43455253u;  // "SREC"
constexpr uint32_t kFormatVersion = 1;
// magic + version + order + flags + sequence.
constexpr size_t kHeaderFixedBytes = 4 + 4 + 4 + 4 + 8;
// Record prefix: magic + pad + step + nnz.
constexpr size_t kRecordPrefixBytes = 4 + 4 + 8 + 8;
// Record suffix: crc + pad.
constexpr size_t kRecordSuffixBytes = 4 + 4;

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

void StoreU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Full write with fault hooks; on a torn-write decision persists a prefix
/// and throws SimulatedCrash via fault::Crash.
bool WriteAllFd(int fd, const char* data, size_t size, const char* site) {
  if (fault::Enabled()) {
    const fault::Decision decision = fault::OnIo(site, size);
    if (decision.io_error) {
      errno = EIO;
      return false;
    }
    if (decision.crash) {
      if (decision.torn) {
        size_t torn = std::min(decision.torn_bytes, size);
        const char* p = data;
        while (torn > 0) {
          const ssize_t n = ::write(fd, p, torn);
          if (n <= 0) break;
          p += n;
          torn -= static_cast<size_t>(n);
        }
      }
      ::close(fd);
      fault::Crash(site);
    }
  }
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

void EncodeRecord(uint64_t step, const DenseTensor& slice, const Mask& mask,
                  std::string* out) {
  SOFIA_CHECK(slice.shape() == mask.shape())
      << "slice/mask shape mismatch in journal encode";
  // Size the record once and store in place. `out` keeps its previous
  // size, so a record no larger than the last one resizes without a fill.
  const size_t nnz = mask.CountObserved();
  const size_t body = kRecordPrefixBytes + 16 * nnz;
  out->resize(body + kRecordSuffixBytes);
  char* p = &(*out)[0];
  StoreU32(p, kRecordMagic);
  StoreU32(p + 4, 0);  // pad
  StoreU64(p + 8, step);
  StoreU64(p + 16, nnz);
  char* entry = p + kRecordPrefixBytes;
  const size_t volume = mask.shape().NumElements();
  for (size_t idx = 0; idx < volume; ++idx) {
    if (!mask.Get(idx)) continue;
    StoreU64(entry, static_cast<uint64_t>(idx));
    std::memcpy(entry + 8, slice.data() + idx, 8);
    entry += 16;
  }
  StoreU32(p + body, durable::Crc32(p, body));
  StoreU32(p + body + 4, 0);  // pad (keeps the next record 8-byte aligned)
}

SliceFileWriter::~SliceFileWriter() { Close(); }

bool SliceFileWriter::Create(const std::string& path,
                             const Shape& slice_shape, uint64_t sequence) {
  Close();
  if (fault::Enabled()) {
    const fault::Decision decision = fault::OnIo("journal.open", 0);
    if (decision.io_error) {
      errno = EIO;
      return false;
    }
    if (decision.crash) fault::Crash("journal.open");
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return false;
  path_ = path;
  slice_shape_ = slice_shape;

  std::string header;
  header.reserve(kHeaderFixedBytes + 8 * slice_shape.order() + 8);
  PutU32(&header, kFileMagic);
  PutU32(&header, kFormatVersion);
  PutU32(&header, static_cast<uint32_t>(slice_shape.order()));
  PutU32(&header, 0);  // flags
  PutU64(&header, sequence);
  for (size_t n = 0; n < slice_shape.order(); ++n) {
    PutU64(&header, static_cast<uint64_t>(slice_shape.dim(n)));
  }
  PutU32(&header, durable::Crc32(header.data(), header.size()));
  PutU32(&header, 0);  // pad
  if (!WriteAllFd(fd_, header.data(), header.size(), "journal.append")) {
    const int fd = fd_;
    fd_ = -1;
    ::close(fd);
    ::unlink(path.c_str());
    return false;
  }
  bytes_written_ += header.size();
  return true;
}

bool SliceFileWriter::Append(uint64_t step, const DenseTensor& slice,
                             const Mask& mask) {
  SOFIA_CHECK(fd_ >= 0) << "Append on a closed slice writer";
  SOFIA_CHECK(slice.shape() == slice_shape_)
      << "journal slice shape changed mid-file: expected "
      << slice_shape_.ToString() << " got " << slice.shape().ToString();
  EncodeRecord(step, slice, mask, &scratch_);
  return AppendEncoded(scratch_);
}

bool SliceFileWriter::AppendEncoded(const std::string& encoded) {
  SOFIA_CHECK(fd_ >= 0) << "Append on a closed slice writer";
  if (!WriteAllFd(fd_, encoded.data(), encoded.size(), "journal.append")) {
    Close();
    return false;
  }
  ++records_written_;
  bytes_written_ += encoded.size();
  return true;
}

bool SliceFileWriter::Sync() {
  if (fd_ < 0) return false;
  if (fault::Enabled()) {
    const fault::Decision decision = fault::OnIo("journal.fsync", 0);
    if (decision.io_error) {
      errno = EIO;
      return false;
    }
    if (decision.crash) {
      const int fd = fd_;
      fd_ = -1;
      ::close(fd);
      fault::Crash("journal.fsync");
    }
  }
  if (::fsync(fd_) != 0 && errno != EINVAL && errno != ENOTSUP &&
      errno != EROFS) {
    return false;
  }
  return true;
}

void SliceFileWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

SliceFileReader::~SliceFileReader() { Close(); }

void SliceFileReader::Close() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  buffer_.clear();
  records_.clear();
  truncated_ = false;
}

bool SliceFileReader::Open(const std::string& path, std::string* error) {
  Close();
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = path + ": " + message;
    Close();
    return false;
  };

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return fail("cannot open");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return fail("cannot stat");
  }
  size_ = static_cast<size_t>(st.st_size);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      data_ = static_cast<const char*>(map);
      mapped_ = true;
    } else {
      // Filesystems without mmap (or exotic sandboxes): fall back to a
      // heap buffer; the record views point into it the same way.
      buffer_.resize(size_);
      size_t got = 0;
      while (got < size_) {
        const ssize_t n = ::read(fd, &buffer_[got], size_ - got);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        got += static_cast<size_t>(n);
      }
      if (got != size_) {
        ::close(fd);
        return fail("short read");
      }
      data_ = buffer_.data();
    }
  }
  ::close(fd);

  // --- Header ---
  if (size_ < kHeaderFixedBytes + 8) return fail("truncated header");
  if (GetU32(data_) != kFileMagic) return fail("bad magic");
  version_ = GetU32(data_ + 4);
  if (version_ != kFormatVersion) {
    return fail("unsupported version " + std::to_string(version_));
  }
  const uint32_t order = GetU32(data_ + 8);
  if (order == 0 || order > 16) return fail("implausible order");
  const size_t header_bytes = kHeaderFixedBytes + 8 * order + 8;
  if (size_ < header_bytes) return fail("truncated header dims");
  if (GetU32(data_ + header_bytes - 8) !=
      durable::Crc32(data_, header_bytes - 8)) {
    return fail("header CRC mismatch");
  }
  std::vector<size_t> dims(order);
  for (uint32_t n = 0; n < order; ++n) {
    const uint64_t d = GetU64(data_ + kHeaderFixedBytes + 8 * n);
    if (d == 0 || d > (1ull << 32)) return fail("implausible dimension");
    dims[n] = static_cast<size_t>(d);
  }
  slice_shape_ = Shape(std::move(dims));
  sequence_ = GetU64(data_ + 16);
  const uint64_t volume = slice_shape_.NumElements();

  // --- Valid-prefix record scan ---
  size_t offset = header_bytes;
  while (offset < size_) {
    if (size_ - offset < kRecordPrefixBytes + kRecordSuffixBytes) break;
    const char* rec = data_ + offset;
    if (GetU32(rec) != kRecordMagic) break;
    const uint64_t nnz = GetU64(rec + 16);
    if (nnz > volume) break;  // Bit-flipped count: cap before sizing.
    const size_t record_bytes =
        kRecordPrefixBytes + static_cast<size_t>(nnz) * sizeof(SliceEntry) +
        kRecordSuffixBytes;
    if (size_ - offset < record_bytes) break;  // Torn tail.
    const size_t crc_offset = record_bytes - kRecordSuffixBytes;
    if (GetU32(rec + crc_offset) != durable::Crc32(rec, crc_offset)) break;
    // Indices must be in range and strictly ascending (canonical form).
    const SliceEntry* entries =
        reinterpret_cast<const SliceEntry*>(rec + kRecordPrefixBytes);
    bool entries_ok = true;
    for (uint64_t k = 0; k < nnz; ++k) {
      if (entries[k].index >= volume ||
          (k > 0 && entries[k].index <= entries[k - 1].index)) {
        entries_ok = false;
        break;
      }
    }
    if (!entries_ok) break;
    SliceRecordView view;
    view.step = GetU64(rec + 8);
    view.entries = entries;
    view.nnz = static_cast<size_t>(nnz);
    records_.push_back(view);
    offset += record_bytes;
  }
  truncated_ = offset != size_;
  return true;
}

void SliceFileReader::Decode(size_t i, DenseTensor* slice,
                             Mask* mask) const {
  SOFIA_CHECK(i < records_.size()) << "slice record index out of range";
  const SliceRecordView& view = records_[i];
  *slice = DenseTensor(slice_shape_, 0.0);
  *mask = Mask(slice_shape_, /*observed=*/false);
  for (size_t k = 0; k < view.nnz; ++k) {
    const size_t idx = static_cast<size_t>(view.entries[k].index);
    (*slice)[idx] = view.entries[k].value;
    mask->Set(idx, true);
  }
}

bool WriteSliceFile(const std::string& path, const TensorStream& stream,
                    uint64_t sequence, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = path + ": " + message;
    return false;
  };
  if (stream.slices.empty()) return fail("empty stream");
  if (stream.slices.size() != stream.masks.size()) {
    return fail("slice/mask count mismatch");
  }
  SliceFileWriter writer;
  if (!writer.Create(path, stream.slices[0].shape(), sequence)) {
    return fail("cannot create");
  }
  for (size_t t = 0; t < stream.slices.size(); ++t) {
    if (stream.slices[t].shape() != stream.slices[0].shape()) {
      return fail("slice " + std::to_string(t) + " changes shape");
    }
    if (!writer.Append(t, stream.slices[t], stream.masks[t])) {
      return fail("append failed at slice " + std::to_string(t));
    }
  }
  if (!writer.Sync()) return fail("fsync failed");
  return true;
}

bool ReadSliceFile(const std::string& path, TensorStream* stream,
                   std::string* error) {
  SliceFileReader reader;
  if (!reader.Open(path, error)) return false;
  stream->slices.clear();
  stream->masks.clear();
  stream->slices.reserve(reader.num_records());
  stream->masks.reserve(reader.num_records());
  for (size_t i = 0; i < reader.num_records(); ++i) {
    DenseTensor slice;
    Mask mask;
    reader.Decode(i, &slice, &mask);
    stream->slices.push_back(std::move(slice));
    stream->masks.push_back(std::move(mask));
  }
  return true;
}

}  // namespace slicefmt
}  // namespace sofia

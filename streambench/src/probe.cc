#include "probe.hpp"

#include <istream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <utility>

#include "obs/trace.hpp"

namespace streambench {

namespace {

/// Buffered pass-through streambuf that counts the bytes it forwards, so a
/// probe can report serialized checkpoint sizes for any target stream
/// (StreamGuard writes into a custom sink whose tellp() is unavailable).
class CountingBuf : public std::streambuf {
 public:
  explicit CountingBuf(std::streambuf* target) : target_(target) {
    setp(buf_, buf_ + sizeof(buf_));
  }
  ~CountingBuf() override { Flush(); }

  uint64_t bytes() const { return bytes_ + (pptr() - pbase()); }

 protected:
  int_type overflow(int_type ch) override {
    if (!Flush()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override { return Flush() ? target_->pubsync() : -1; }

 private:
  bool Flush() {
    const std::streamsize n = pptr() - pbase();
    if (n == 0) return true;
    const bool ok = target_->sputn(pbase(), n) == n;
    bytes_ += static_cast<uint64_t>(n);
    setp(buf_, buf_ + sizeof(buf_));
    return ok;
  }

  std::streambuf* target_;
  uint64_t bytes_ = 0;
  char buf_[8192];
};

/// Span + wall-time accumulator of one probed call.
class Timed {
 public:
  Timed(const char* span, uint64_t id, std::atomic<uint64_t>* total_ns)
      : total_ns_(total_ns), start_ns_(sofia::obs::NowNs()) {
    if (span != nullptr) span_.emplace(span, nullptr, id, "slice");
  }
  ~Timed() {
    span_.reset();
    total_ns_->fetch_add(sofia::obs::NowNs() - start_ns_);
  }

 private:
  std::optional<sofia::obs::ObsSpan> span_;
  std::atomic<uint64_t>* total_ns_;
  uint64_t start_ns_;
};

}  // namespace

void ProbeTotals::Reset() {
  for (std::atomic<uint64_t>* v :
       {&init_ns, &steps, &step_ns, &saves, &save_ns, &save_bytes, &restores,
        &restore_ns, &first_step_ns}) {
    v->store(0);
  }
}

LayerProbe::LayerProbe(std::unique_ptr<sofia::StreamingMethod> inner,
                       ProbeSpans spans, ProbeTotals* totals,
                       InitCache* init_cache, bool forward_pool)
    : inner_(std::move(inner)), spans_(spans), totals_(totals),
      init_cache_(init_cache), forward_pool_(forward_pool) {}

std::vector<sofia::DenseTensor> LayerProbe::Initialize(
    const std::vector<sofia::DenseTensor>& slices,
    const std::vector<sofia::Mask>& masks) {
  next_slice_ = slices.size();
  Timed timed(spans_.init, slices.size(), &totals_->init_ns);
  if (init_cache_ != nullptr && init_cache_->filled &&
      init_cache_->completions.size() == slices.size()) {
    std::istringstream in(init_cache_->state);
    inner_->RestoreState(in);
    return init_cache_->completions;
  }
  std::vector<sofia::DenseTensor> completions =
      inner_->Initialize(slices, masks);
  if (init_cache_ != nullptr) {
    std::ostringstream out;
    inner_->SaveState(out);
    init_cache_->state = out.str();
    init_cache_->completions = completions;
    init_cache_->filled = true;
  }
  return completions;
}

sofia::StepResult LayerProbe::StepLazy(
    const sofia::DenseTensor& y, const sofia::Mask& omega,
    std::shared_ptr<const sofia::CooList> pattern) {
  uint64_t unset = 0;
  totals_->first_step_ns.compare_exchange_strong(unset,
                                                 sofia::obs::NowNs());
  totals_->steps.fetch_add(1);
  Timed timed(spans_.step, next_slice_++, &totals_->step_ns);
  return inner_->StepLazy(y, omega, std::move(pattern));
}

void LayerProbe::Observe(const sofia::DenseTensor& y,
                         const sofia::Mask& omega) {
  totals_->steps.fetch_add(1);
  Timed timed(spans_.step, next_slice_++, &totals_->step_ns);
  inner_->Observe(y, omega);
}

void LayerProbe::SaveState(std::ostream& out) const {
  totals_->saves.fetch_add(1);
  Timed timed(spans_.save, next_slice_, &totals_->save_ns);
  CountingBuf counter(out.rdbuf());
  {
    std::ostream counted(&counter);
    inner_->SaveState(counted);
    counted.flush();
  }
  totals_->save_bytes.fetch_add(counter.bytes());
}

void LayerProbe::RestoreState(std::istream& in) {
  totals_->restores.fetch_add(1);
  Timed timed(spans_.restore, next_slice_, &totals_->restore_ns);
  inner_->RestoreState(in);
}

}  // namespace streambench

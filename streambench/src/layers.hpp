#ifndef STREAMBENCH_LAYERS_H_
#define STREAMBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

/// \file layers.hpp
/// \brief Per-layer readings of a traced pass: registry counter deltas and
/// span self times on the driver track.

namespace streambench {

/// Values of every registry counter (name -> value) right now.
std::map<std::string, uint64_t> CounterSnapshot();

/// after - before, per counter (counters absent before count from 0).
std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after);

/// Self time of one span name on one track: span duration minus the time
/// its direct child spans cover, summed over every instance.
struct SpanSelf {
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

struct TrackProfile {
  std::map<std::string, SpanSelf> spans;  ///< Under the root span only.
  double root_us = 0.0;    ///< Duration of the root span.
  bool found_root = false;
};

/// Reads a Chrome trace written by obs::TraceStopAndWrite and profiles the
/// spans on thread `tid` nested inside the (single) span named `root`.
/// Returns false with *error when the file is unreadable or malformed.
bool ProfileTrack(const std::string& trace_path, uint32_t tid,
                  const std::string& root, TrackProfile* out,
                  std::string* error);

}  // namespace streambench

#endif  // STREAMBENCH_LAYERS_H_

#include "layers.hpp"

#include <algorithm>
#include <vector>

#include "obs/json_lite.hpp"
#include "obs/metrics.hpp"

namespace streambench {

std::map<std::string, uint64_t> CounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, counter] :
       sofia::obs::Registry::Global().Counters()) {
    out[name] = counter->Value();
  }
  return out;
}

std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

namespace {

struct Event {
  std::string name;
  double start = 0.0;
  double dur = 0.0;
  double child = 0.0;  ///< Time covered by direct children.
  double end() const { return start + dur; }
};

}  // namespace

bool ProfileTrack(const std::string& trace_path, uint32_t tid,
                  const std::string& root, TrackProfile* out,
                  std::string* error) {
  std::string body;
  if (!sofia::obs::ReadFileToString(trace_path, &body, error)) return false;
  sofia::obs::JsonValue doc;
  if (!sofia::obs::ParseJson(body, &doc, error)) return false;
  const sofia::obs::JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    *error = "no traceEvents array";
    return false;
  }

  std::vector<Event> track;
  for (const sofia::obs::JsonValue& e : events->array) {
    if (e.StringOr("ph", "") != "X") continue;
    if (e.NumberOr("tid", -1.0) != static_cast<double>(tid)) continue;
    track.push_back({e.StringOr("name", ""), e.NumberOr("ts", 0.0),
                     e.NumberOr("dur", 0.0), 0.0});
  }
  // Spans on one thread nest (they are RAII scopes): sorted by start, with
  // the longer span first on ties, each span's parent is the innermost open
  // span that has not ended yet.
  std::sort(track.begin(), track.end(), [](const Event& a, const Event& b) {
    return a.start != b.start ? a.start < b.start : a.dur > b.dur;
  });
  constexpr double kSlackUs = 1e-3;  // Timestamps carry whole nanoseconds.
  std::vector<Event*> open;
  for (Event& e : track) {
    while (!open.empty() && open.back()->end() <= e.start + kSlackUs) {
      open.pop_back();
    }
    if (!open.empty()) open.back()->child += e.dur;
    open.push_back(&e);
  }

  *out = TrackProfile{};
  const Event* root_event = nullptr;
  for (const Event& e : track) {
    if (e.name == root) {
      if (root_event != nullptr) {
        *error = "more than one '" + root + "' span on the track";
        return false;
      }
      root_event = &e;
    }
  }
  if (root_event == nullptr) return true;
  out->found_root = true;
  out->root_us = root_event->dur;
  for (const Event& e : track) {
    if (e.start + kSlackUs < root_event->start ||
        e.end() > root_event->end() + kSlackUs) {
      continue;
    }
    SpanSelf& s = out->spans[e.name];
    ++s.count;
    s.total_us += e.dur;
    s.self_us += e.dur - e.child;
  }
  return true;
}

}  // namespace streambench

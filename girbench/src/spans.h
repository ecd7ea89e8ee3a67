#ifndef GIRBENCH_SPANS_H_
#define GIRBENCH_SPANS_H_

// In-memory span log of the traced run, written out at the end as
// Chrome trace-event JSON (Perfetto and chrome://tracing open it
// directly). Spans are recorded by the benchmark around its own calls
// into the stack; nothing inside the engine is instrumented.
//
// Two kinds of span:
//   - call spans (cat "call"): one stack call on one thread, e.g.
//     ComputeBatch on the serving thread. Exported as complete ("X")
//     events on that thread's track.
//   - request phases (cat "query" / "update", req >= 0): consecutive
//     intervals of one request's life, e.g. admission_wait then batch.
//     Exported as nestable async events keyed by the request id, so
//     each request gets its own row under its category.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace girbench {

// Logical thread ids of the trace tracks.
enum TrackId : uint32_t {
  kMainTrack = 1,
  kGeneratorTrack = 2,
  kServerTrack = 3,
  kWriterTrack = 4,
};

struct Span {
  const char* name = "";  // static string
  const char* cat = "";   // "call", "query", "update" or "probe"
  uint32_t tid = kMainTrack;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t req = -1;  // request id of a request phase, else -1

  double duration_ms() const { return end_ms - start_ms; }
};

// Thread-safe append-only log; Add is a no-op when disabled, so the
// untraced run pays one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  void Add(const char* name, const char* cat, uint32_t tid, double start_ms,
           double end_ms, int64_t req = -1) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, cat, tid, start_ms, end_ms, req});
  }

  // Copy of everything recorded so far.
  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Chrome trace-event JSON of `spans` (timestamps in microseconds), with
// `metadata` as the top-level "metadata" object (string values).
std::string ChromeTraceJson(
    const std::vector<Span>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata);

}  // namespace girbench

#endif  // GIRBENCH_SPANS_H_

// Spans recorded by the benchmark around each public call it makes into
// the program. A span carries a name (the layer whose entry point was
// called), start and end on the steady clock, the span that caused it and
// the request it belongs to. Each thread appends to its own SpanLog, so
// recording takes no lock; the logs are merged and written out once the
// run is over, and the per-layer table is derived from the merged list.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// \brief One thread's spans. `thread_tag` keeps span ids unique across
/// logs without coordination.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread_tag = 0)
      : next_id_((static_cast<uint64_t>(thread_tag) << 40) + 1) {}

  /// \brief Open a span; close it with End(). Returns its id.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request) {
    Span span;
    span.name = name;
    span.id = next_id_++;
    span.parent = parent;
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return span.id;
  }

  /// \brief Close the most recently opened span with this id.
  void End(uint64_t id) {
    const int64_t now = NowNs();
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->id == id) {
        it->end_ns = now;
        return;
      }
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// \brief Durations (us) of every span called `name`.
inline std::vector<double> SpanMicros(const std::vector<Span>& spans,
                                      const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) out.push_back(span.micros());
  }
  return out;
}

/// \brief Write spans as JSON lines; false on I/O failure.
inline bool WriteSpans(const std::vector<Span>& spans,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

// In-memory span recorder of the traced benchmark run.
//
// A span is one call the benchmark makes into a layer's public
// function: its name ("mem.compat_graph", "serve.call", ...), start and
// end on the steady clock, the span that caused it, and the request id
// shared by every span of one request. Spans stay in memory while the
// workload runs and are written out once, as Chrome trace-event JSON,
// when the run ends. A layer's self time is its spans' durations minus
// the part of each interval its child spans cover.
//
// A disabled tracer records nothing; the untraced run measures the
// end-to-end metrics with every ScopedSpan reduced to a branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double startUs = 0;
  double endUs = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0; ///< 0 = root
  std::int64_t requestId = 0;
  std::int64_t thread = 0;
};

class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled).
  std::int64_t begin(const std::string& name, std::int64_t parent,
                     std::int64_t requestId);
  void end(std::int64_t id);

  std::size_t spanCount() const;

  /// Self time per span name, in milliseconds.
  std::map<std::string, double> selfMillis() const;

  /// Writes every span as Chrome trace-event JSON; false on I/O error.
  bool writeChromeTrace(const std::string& path) const;

private:
  double nowUs() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_; // guards spans_ and nextId_
  std::vector<Span> spans_;
  std::int64_t nextId_ = 1;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::int64_t parent = 0,
             std::int64_t requestId = 0)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.begin(name, parent, requestId) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0)
      tracer_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

private:
  Tracer& tracer_;
  const std::int64_t id_;
};

} // namespace perfbench

#include "Trace.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int64_t Tracer::begin(const std::string& name, std::int64_t parent,
                           std::int64_t requestId) {
  if (!enabled_)
    return 0;
  Span span;
  span.name = name;
  span.parent = parent;
  span.requestId = requestId;
  span.thread = static_cast<std::int64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
  span.startUs = nowUs();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = nextId_++;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::int64_t id) {
  const double now = nowUs();
  std::lock_guard<std::mutex> lock(mutex_);
  // Ids are dense and assigned in push order.
  spans_[static_cast<std::size_t>(id - 1)].endUs = now;
}

std::size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::selfMillis() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& span : spans_)
    if (span.parent != 0)
      children[span.parent].emplace_back(span.startUs, span.endUs);
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    double covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the child intervals clipped to this span.
      std::vector<std::pair<double, double>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double reach = span.startUs;
      for (auto [start, end] : intervals) {
        start = std::max(start, reach);
        end = std::min(end, span.endUs);
        if (end > start) {
          covered += end - start;
          reach = end;
        }
      }
    }
    self[span.name] += (span.endUs - span.startUs - covered) / 1000.0;
  }
  return self;
}

namespace {

std::string escaped(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\')
      out += '\\';
    out += c;
  }
  return out;
}

} // namespace

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << escaped(span.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << span.startUs
        << ",\"dur\":" << (span.endUs - span.startUs)
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.requestId << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

} // namespace perfbench

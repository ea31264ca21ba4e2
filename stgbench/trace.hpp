// In-memory span recorder for the benchmark.
//
// stgbench wraps every call it makes into a simulator layer in a span:
// name, start, end, parent span, and the id of the prediction or request
// the call belongs to. Spans stay in memory and are written out once, when
// the run ends. A layer's busy time is the self time of its spans: the
// span's duration minus the part its child spans cover.
//
// A disabled tracer adds one branch per call, so the untraced runs that
// produce the end-to-end metrics measure the program, not the tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace stgbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;        ///< index into the span list; -1 for a root
  std::int64_t id = -1;   ///< prediction or request id
  double child_s = 0.0;   ///< time covered by direct children
};

class Tracer {
 public:
  /// Recording is switched per round and per thread, so a traced run can
  /// interleave traced and untraced rounds and measure the tracing cost,
  /// also where client threads are in different rounds at once.
  static void set_recording(bool on) { recording_flag() = on; }
  static bool recording() { return recording_flag(); }

  /// Calls `f`, recording a span around it when recording is on. Spans
  /// nest per thread: a span opened inside `f` on the same thread gets
  /// this span as its parent.
  template <class F>
  decltype(auto) span(const char* name, std::int64_t id, F&& f) {
    if (!recording()) return f();
    const int index = open(name, id);
    struct Closer {
      Tracer* t;
      int index;
      ~Closer() { t->close(index); }
    } closer{this, index};
    return f();
  }

  /// Self seconds summed per span name.
  std::map<std::string, double> self_seconds() const {
    std::lock_guard lk(mu_);
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      out[s.name] += seconds_between(s.start, s.end) - s.child_s;
    }
    return out;
  }

  /// Every duration (seconds) of spans named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::lock_guard lk(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(seconds_between(s.start, s.end));
    }
    return out;
  }

  /// Writes every span as one JSON array, times in microseconds from the
  /// first span's start.
  void write(const std::string& path) const {
    std::lock_guard lk(mu_);
    std::ofstream out(path, std::ios::trunc);
    out << "[\n";
    const Clock::time_point t0 =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"i\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"id\":" << s.id
          << ",\"start_us\":" << seconds_between(t0, s.start) * 1e6
          << ",\"end_us\":" << seconds_between(t0, s.end) * 1e6 << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  int open(const char* name, std::int64_t id) {
    std::vector<int>& stack = open_stack();
    std::lock_guard lk(mu_);
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.id = id;
    s.start = Clock::now();
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack.push_back(index);
    return index;
  }

  void close(int index) {
    const Clock::time_point end = Clock::now();
    open_stack().pop_back();
    std::lock_guard lk(mu_);
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = end;
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].child_s +=
          seconds_between(s.start, s.end);
    }
  }

  static std::vector<int>& open_stack() {
    thread_local std::vector<int> stack;
    return stack;
  }

  static bool& recording_flag() {
    thread_local bool on = false;
    return on;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace stgbench

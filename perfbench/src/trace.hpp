#pragma once
// In-memory span and counter recorder for the traced benchmark run.
//
// Spans are recorded from the harness's own files, around each call into
// a layer: name, start, end, parent and the block (or request) they belong
// to.  Nothing is written while the workload runs; write_chrome() and
// self_times() turn the recorded spans into a Chrome trace-event file and
// a per-layer self-time table when the run ends.
//
// Thread-safety: begin()/end()/add() may be called from any thread (the
// driver evaluates predictors on its service workers).  A span opened on a
// thread with no open span of its own takes the current root span (set by
// a RootScope on the submitting thread) as its parent, so predictor spans
// nest under the sweep that caused them.

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string block;  // block hash or request id shared by its spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  // -1: top level
  std::uint32_t tid = 0;
};

struct LayerTime {
  std::size_t count = 0;
  double total_s = 0;  // sum of span durations
  double self_s = 0;   // durations minus the time children cover
};

class Tracer {
 public:
  /// The tracer spans report to; nullptr when tracing is off, which makes
  /// every Scope a no-op.
  static Tracer* active();
  static void set_active(Tracer* t);

  int begin(std::string_view name, std::string_view block);
  void end(int id);
  /// Adds `v` to the named counter.
  void add(std::string_view counter, double v);

  void set_root(int id);
  int root() const;

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::map<std::string, double> counters() const;

  /// Per span name: count, total and self time, over the spans whose id
  /// lies in [first, last).
  [[nodiscard]] std::map<std::string, LayerTime> self_times(
      int first = 0, int last = std::numeric_limits<int>::max()) const;

  /// Chrome trace-event JSON (complete "X" events plus one counter event
  /// per counter), loadable offline in Perfetto or chrome://tracing.
  [[nodiscard]] std::string chrome_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
  int root_ = -1;
};

/// RAII span around one layer call; a no-op when tracing is off.
class Scope {
 public:
  Scope(std::string_view name, std::string_view block);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
};

/// A Scope that is also the parent of spans opened on other threads
/// (worker threads of the driver's service pipeline) while it is open.
class RootScope {
 public:
  RootScope(std::string_view name, std::string_view block);
  ~RootScope();
  RootScope(const RootScope&) = delete;
  RootScope& operator=(const RootScope&) = delete;

 private:
  Scope scope_;
  int previous_root_ = -1;
};

/// Adds to a counter when tracing is on.
void count(std::string_view counter, double v);

[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench

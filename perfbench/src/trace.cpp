#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};
thread_local std::vector<int> t_open;  // spans open on this thread

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer* Tracer::active() { return g_active.load(std::memory_order_acquire); }

void Tracer::set_active(Tracer* t) {
  g_active.store(t, std::memory_order_release);
}

int Tracer::begin(std::string_view name, std::string_view block) {
  Span s;
  s.name = std::string(name);
  s.block = std::string(block);
  s.tid = thread_tag();
  const std::lock_guard lock(mu_);
  s.id = static_cast<int>(spans_.size());
  s.parent = t_open.empty() ? root_ : t_open.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  t_open.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  const std::int64_t t = now_ns();
  const std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

void Tracer::add(std::string_view counter, double v) {
  const std::lock_guard lock(mu_);
  counters_[std::string(counter)] += v;
}

void Tracer::set_root(int id) {
  const std::lock_guard lock(mu_);
  root_ = id;
}

int Tracer::root() const {
  const std::lock_guard lock(mu_);
  return root_;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::counters() const {
  const std::lock_guard lock(mu_);
  return counters_;
}

std::map<std::string, LayerTime> Tracer::self_times(int first, int last) const {
  const std::vector<Span> all = spans();
  std::unordered_map<int, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : all) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : all) {
    if (s.id < first || s.id >= last) continue;
    const std::int64_t dur = s.end_ns - s.start_ns;
    // Children may run on other threads and overlap each other: subtract
    // the union of their intervals, clipped to this span.
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    LayerTime& lt = out[s.name];
    ++lt.count;
    lt.total_s += static_cast<double>(dur) * 1e-9;
    lt.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  return out;
}

std::string Tracer::chrome_json() const {
  const std::vector<Span> all = spans();
  const std::map<std::string, double> ctr = counters();
  std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  std::int64_t t_end = t0;
  for (const Span& s : all) {
    t0 = std::min(t0, s.start_ns);
    t_end = std::max(t_end, s.end_ns);
  }
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[160];
  bool first = true;
  for (const Span& s : all) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"name\": ",
                  s.tid, static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out += first ? "" : ",\n";
    first = false;
    out += buf;
    out += json_string(s.name);
    std::snprintf(buf, sizeof buf,
                  ", \"args\": {\"id\": %d, \"parent\": %d, \"block\": ",
                  s.id, s.parent);
    out += buf;
    out += json_string(s.block) + "}}";
  }
  for (const auto& [name, v] : ctr) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"ts\": %.3f, "
                  "\"name\": ",
                  static_cast<double>(t_end - t0) * 1e-3);
    out += first ? "" : ",\n";
    first = false;
    out += buf;
    std::snprintf(buf, sizeof buf, ", \"args\": {\"value\": %.17g}}", v);
    out += json_string(name) + buf;
  }
  return out + "\n]}\n";
}

Scope::Scope(std::string_view name, std::string_view block)
    : tracer_(Tracer::active()) {
  if (tracer_ != nullptr) id_ = tracer_->begin(name, block);
}

Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->end(id_);
}

RootScope::RootScope(std::string_view name, std::string_view block)
    : scope_(name, block) {
  if (Tracer* t = Tracer::active()) {
    previous_root_ = t->root();
    t->set_root(scope_.id());
  }
}

RootScope::~RootScope() {
  if (Tracer* t = Tracer::active()) t->set_root(previous_root_);
}

void count(std::string_view counter, double v) {
  if (Tracer* t = Tracer::active()) t->add(counter, v);
}

}  // namespace perfbench

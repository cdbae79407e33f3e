#include "traffic/layout.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "memsim/cachesim.hpp"

namespace incore::traffic {

using dataflow::MemAccess;

SyntheticLayout synthesize_layout(const Result& r,
                                  const dataflow::Analysis& df,
                                  const asmir::Program& prog,
                                  const uarch::MachineModel& mm,
                                  long long measure_iterations,
                                  long long max_total_iterations) {
  SyntheticLayout out;
  out.measure_iterations = measure_iterations;
  const int line = mm.cache.line_bytes;

  // Unknowable layouts: the static model never claimed to predict these.
  for (const Stream& s : r.streams) {
    if (s.pattern == Pattern::Symbolic ||
        s.pattern == Pattern::GatherScatter) {
      return out;
    }
  }
  if (df.accesses.empty()) return out;

  // Warmup sizing: fill 1.5x the combined capacity at the aggregate
  // leading-edge rate, plus slack.  No stream-span term: a reuse across a
  // band gap can hit only if the gap's footprint fits the hierarchy, and
  // the fill term already makes such a footprint resident.
  double agg_bytes = 0;  // leading-edge fill rate
  for (const Stream& s : r.streams) {
    agg_bytes += s.lines_per_iter * line;
    double stream_bytes = 0;
    for (const Band& b : s.bands) stream_bytes += b.lines_per_iter;
    if (s.bands.empty()) stream_bytes = s.lines_per_iter;
    out.agg_sweep_bytes += stream_bytes * line;
  }
  const double c123 = static_cast<double>(mm.cache.l1_bytes) +
                      static_cast<double>(mm.cache.l2_bytes) +
                      static_cast<double>(mm.cache.l3_bytes);
  long long warmup =
      (agg_bytes > 0 ? static_cast<long long>(1.5 * c123 / agg_bytes) : 0) +
      1024;
  if (warmup + measure_iterations > max_total_iterations) {
    warmup = std::max<long long>(max_total_iterations - measure_iterations,
                                 1024);
    out.capped = true;
  }
  out.warmup_iterations = warmup;
  const long long total =
      std::max(warmup + measure_iterations, max_total_iterations);

  // Disjoint regions, staggered by 68 lines to decorrelate cache sets.
  std::vector<long long> base(r.streams.size(), 0);
  long long cursor = 1ll << 30;
  for (std::size_t si = 0; si < r.streams.size(); ++si) {
    const Stream& s = r.streams[si];
    const long long stride = s.stride_bytes.value_or(0);
    long long min_lo = 0, max_hi = 1;
    bool first = true;
    for (int ai : s.accesses) {
      const MemAccess& a = df.accesses[static_cast<std::size_t>(ai)];
      const long long lo = a.effective_displacement();
      const long long hi = lo + std::max<long long>(a.width_bits / 8, 1);
      min_lo = first ? lo : std::min(min_lo, lo);
      max_hi = first ? hi : std::max(max_hi, hi);
      first = false;
    }
    const long long lo_range = min_lo + (stride < 0 ? stride * (total - 1) : 0);
    const long long hi_range = max_hi + (stride > 0 ? stride * (total - 1) : 0);
    base[si] = cursor - lo_range;
    cursor += (hi_range - lo_range) + (1 << 20) + 68ll * line;
  }
  // Ops in program order (df.accesses is program order).
  std::vector<std::size_t> stream_of(df.accesses.size(), 0);
  for (std::size_t si = 0; si < r.streams.size(); ++si) {
    for (int ai : r.streams[si].accesses) {
      stream_of[static_cast<std::size_t>(ai)] = si;
    }
  }
  for (std::size_t ai = 0; ai < df.accesses.size(); ++ai) {
    const MemAccess& a = df.accesses[ai];
    LayoutOp op;
    op.lo = base[stream_of[ai]] + a.effective_displacement();
    op.width = std::max<long long>(a.width_bits / 8, 1);
    op.stride = r.streams[stream_of[ai]].stride_bytes.value_or(0);
    op.stream = static_cast<int>(stream_of[ai]);
    op.is_load = a.is_load;
    op.is_store = a.is_store;
    op.nontemporal =
        a.is_store &&
        is_nontemporal_store(
            prog.code[static_cast<std::size_t>(a.instr)].mnemonic, prog.isa);
    out.ops.push_back(op);
  }
  out.ok = true;
  return out;
}

bool near_capacity_edge(const Result& r, const SyntheticLayout& layout,
                        const uarch::MachineModel& mm) {
  const double caps[] = {static_cast<double>(mm.cache.l1_bytes),
                         static_cast<double>(mm.cache.l1_bytes) +
                             static_cast<double>(mm.cache.l2_bytes),
                         static_cast<double>(mm.cache.l1_bytes) +
                             static_cast<double>(mm.cache.l2_bytes) +
                             static_cast<double>(mm.cache.l3_bytes)};
  for (const Stream& s : r.streams) {
    for (const Band& b : s.bands) {
      if (b.leading) continue;
      const double reuse = b.gap_iterations * layout.agg_sweep_bytes;
      for (double cap : caps) {
        if (reuse >= 0.7 * cap && reuse <= 1.4 * cap) return true;
      }
    }
  }
  return false;
}

bool l1_set_conflict(const SyntheticLayout& layout,
                     const uarch::MachineModel& mm) {
  const int line = mm.cache.line_bytes;
  const int ways = mm.cache.l1_ways;
  const long long sets = std::max<long long>(
      mm.cache.l1_bytes / (static_cast<long long>(line) * ways), 1);
  std::map<long long, std::set<long long>> live;  // set index -> lines
  for (const LayoutOp& op : layout.ops) {
    const long long l0 = op.lo / line;
    const long long l1 = (op.lo + op.width - 1) / line;
    for (long long l = l0; l <= l1; ++l) live[l % sets].insert(l);
  }
  for (const auto& [set_index, lines_in_set] : live) {
    if (static_cast<long long>(lines_in_set.size()) > ways) return true;
  }
  return false;
}

namespace {

/// Floored division (negative strides walk regions downward).
[[nodiscard]] long long floor_div(long long a, long long b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

/// The number of streams `ops` name.  Throws std::logic_error if two of
/// them touch a common line within `iterations` iterations: the replay
/// reads a line outside its own stream's touched range as untouched.
std::size_t count_disjoint_streams(const std::vector<LayoutOp>& ops,
                                   long long iterations, int line) {
  int streams = 0;
  for (const LayoutOp& op : ops) streams = std::max(streams, op.stream + 1);
  std::vector<std::pair<long long, long long>> lines(
      static_cast<std::size_t>(streams),
      {std::numeric_limits<long long>::max(),
       std::numeric_limits<long long>::min()});
  for (const LayoutOp& op : ops) {
    const long long walk = op.stride * (iterations - 1);
    auto& [first, last] = lines[static_cast<std::size_t>(op.stream)];
    first = std::min(first, floor_div(op.lo + std::min(walk, 0ll), line));
    last = std::max(last, floor_div(op.lo + op.width - 1 + std::max(walk, 0ll),
                                    line));
  }
  std::sort(lines.begin(), lines.end());
  for (std::size_t k = 1; k < lines.size(); ++k) {
    if (lines[k].first <= lines[k - 1].second) {
      throw std::logic_error("traffic::replay: stream regions overlap");
    }
  }
  return lines.size();
}

[[nodiscard]] ReplayCounters counters(const memsim::CacheHierarchy& h) {
  return {h.level(0).stats().misses, h.level(0).stats().evictions,
          h.level(1).stats().hits,   h.level(1).stats().evictions,
          h.level(2).stats().hits,   h.memory().lines_read,
          h.memory().lines_written,  h.claimed_lines()};
}

[[nodiscard]] ReplayCounters minus(const ReplayCounters& end,
                                   const ReplayCounters& begin) {
  return {end.l1_miss - begin.l1_miss,     end.l1_evict - begin.l1_evict,
          end.l2_hit - begin.l2_hit,       end.l2_evict - begin.l2_evict,
          end.l3_hit - begin.l3_hit,       end.mem_read - begin.mem_read,
          end.mem_write - begin.mem_write, end.claimed - begin.claimed};
}

/// The calling thread's last replay.  The key is everything the
/// simulated run depends on: the ops, the warmup, and the hierarchy
/// CacheHierarchy::for_model builds (cache geometry; the machine fixes
/// the write-allocate mechanism and the claim warmup).
struct KeptReplay {
  bool valid = false;
  std::vector<LayoutOp> ops;
  long long warmup = 0;
  uarch::CacheParams cache;
  uarch::Micro micro{};
  /// (window, counters over it): the powers of two below the measured
  /// window, then the measured window itself.
  std::array<std::pair<long long, ReplayCounters>, 64> windows;
  std::size_t n_windows = 0;

  [[nodiscard]] bool same_run(const SyntheticLayout& layout,
                              const uarch::MachineModel& mm) const {
    return valid && warmup == layout.warmup_iterations &&
           micro == mm.micro() && cache == mm.cache && ops == layout.ops;
  }
};

thread_local KeptReplay t_kept;
thread_local std::uint64_t t_simulated = 0;
thread_local ReplayWork t_work;

}  // namespace

ReplayCounters replay(const SyntheticLayout& layout,
                      const uarch::MachineModel& mm) {
  KeptReplay& kept = t_kept;
  if (kept.same_run(layout, mm)) {
    for (std::size_t k = 0; k < kept.n_windows; ++k) {
      if (kept.windows[k].first == layout.measure_iterations) {
        return kept.windows[k].second;
      }
    }
  }
  // Fill the key before the hierarchy's arrays are allocated: a small
  // allocation made after them would sit above them on the heap and keep
  // the freed arrays from being returned to the system.
  kept.valid = false;
  kept.ops = layout.ops;
  kept.warmup = layout.warmup_iterations;
  kept.cache = mm.cache;
  kept.micro = mm.micro();
  kept.n_windows = 0;

  const int line = mm.cache.line_bytes;
  const long long warmup = layout.warmup_iterations;
  const long long total = warmup + layout.measure_iterations;
  // The cold rule below needs each stream in a region of its own.
  const std::size_t streams = count_disjoint_streams(layout.ops, total, line);
  // Each stream's lines touched so far, as [first, last]: empty at start.
  std::vector<std::pair<long long, long long>> touched(
      streams, {std::numeric_limits<long long>::max(),
                std::numeric_limits<long long>::min()});

  // Each op's first line at the current iteration and the offset of its
  // first byte in that line, stepped by the stride without dividing.
  struct Walk {
    long long line = 0, offset = 0, step_lines = 0, step_offset = 0;
  };
  std::vector<Walk> walks;
  walks.reserve(layout.ops.size());
  for (const LayoutOp& op : layout.ops) {
    Walk w;
    w.line = floor_div(op.lo, line);
    w.offset = op.lo - w.line * line;
    w.step_lines = floor_div(op.stride, line);
    w.step_offset = op.stride - w.step_lines * line;
    walks.push_back(w);
  }

  memsim::CacheHierarchy hier = memsim::CacheHierarchy::for_model(mm);
  ReplayWork work;
  ReplayCounters begin;
  long long window = 0;      // window recorded at the next mark
  long long mark = warmup;   // iteration before which counters are read
  for (long long i = 0; i < total; ++i) {
    if (i == mark) {
      if (window == 0) {
        begin = counters(hier);
      } else {
        kept.windows[kept.n_windows++] = {window, minus(counters(hier), begin)};
      }
      window = window == 0 ? 1 : 2 * window;
      mark = warmup + window;
    }
    for (std::size_t k = 0; k < layout.ops.size(); ++k) {
      const LayoutOp& op = layout.ops[k];
      Walk& w = walks[k];
      auto& [first, last] = touched[static_cast<std::size_t>(op.stream)];
      long long l = w.line;
      for (long long left = w.offset + op.width; left > 0; left -= line, ++l) {
        const auto line_index = static_cast<std::uint64_t>(l);
        if (op.nontemporal) {
          hier.store_line(line_index, memsim::StoreKind::NonTemporal, false);
          ++work.line_accesses;
          continue;
        }
        // Outside the stream's touched range, and so outside every
        // stream's: no access has brought the line into the hierarchy.
        const bool cold = l < first || l > last;
        first = std::min(first, l);
        last = std::max(last, l);
        if (cold) ++work.cold;
        if (op.is_load) {
          hier.load_line(line_index, cold);
          ++work.line_accesses;
        }
        // An RMW's store follows its load, which made the line resident.
        if (op.is_store) {
          hier.store_line(line_index, memsim::StoreKind::Standard,
                          cold && !op.is_load);
          ++work.line_accesses;
        }
      }
      w.line += w.step_lines;
      w.offset += w.step_offset;
      if (w.offset >= line) {
        w.offset -= line;
        ++w.line;
      }
    }
  }
  t_simulated += static_cast<std::uint64_t>(total);
  t_work.line_accesses += work.line_accesses;
  t_work.cold += work.cold;
  t_work.mru += hier.mru_hits();
  const ReplayCounters d = minus(counters(hier), begin);
  kept.windows[kept.n_windows++] = {layout.measure_iterations, d};
  kept.valid = true;
  return d;
}

std::uint64_t simulated_replay_iterations() { return t_simulated; }

ReplayWork replay_work() { return t_work; }

}  // namespace incore::traffic

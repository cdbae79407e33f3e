#pragma once
// Trace-driven cache hierarchy simulator.
//
// The analytic model in memsim.hpp computes *expected* traffic; this
// component actually walks addresses through a set-associative, write-back
// hierarchy (per-core L1 and L2 plus an L3 share -> memory) with LRU
// replacement, a streaming-store claim detector (Grace's automatic
// write-allocate evasion) and non-temporal stores that bypass the hierarchy
// with full-line write combining.  Lines are managed exclusively: a fill
// allocates in L1 and evicted victims cascade downward, as in AMD-style
// victim hierarchies.  The unit tests cross-validate the trace-level
// traffic against the analytic per-line model.
//
// An access does only the work that can change the simulated state, and
// counts the rest.  A re-access of the line last accessed in its L1 set
// is an L1 hit that moves no LRU order (and, for a load or a line already
// dirty, no dirty bit), so it only counts the hit.  A caller that knows a
// line was never accessed (the trace replay does) marks the access cold:
// it counts a miss at each level instead of probing.  A lower-level hit is
// found and invalidated by one scan of its set.  Every counter equals
// what probing each level on every access would count.

#include <cstdint>
#include <vector>

#include "memsim/memsim.hpp"

namespace incore::memsim {

struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;
  int ways = 8;
  int line_bytes = 64;
};

struct LevelStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  // valid victims pushed out
};

struct MemoryStats {
  std::uint64_t lines_read = 0;
  std::uint64_t lines_written = 0;
};

/// One set-associative LRU array.  Pure mechanism: the hierarchy owns all
/// policy (fill levels, write-back cascading, claims).  Line addresses
/// must be below 2^62.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheConfig& cfg);

  struct Evicted {
    bool valid = false;
    bool dirty = false;
    std::uint64_t line_addr = 0;
  };

  /// Probe for a line; on hit, refresh LRU and optionally mark dirty.
  [[nodiscard]] bool probe(std::uint64_t line_addr, bool make_dirty);
  /// Probe for a line and, on a hit, remove it, in one scan of its set:
  /// counts a hit or a miss as `probe` does, and reports a hit line's
  /// dirty bit through `was_dirty`.
  [[nodiscard]] bool take(std::uint64_t line_addr, bool* was_dirty);
  /// Insert a line (must not be present); the displaced victim, if any, is
  /// reported through `evicted`.
  void insert(std::uint64_t line_addr, bool dirty, Evicted* evicted);
  /// Count a probe whose outcome the caller knows without scanning: a hit
  /// that would change no state, or a miss of a line never inserted.
  void count_hit() { ++stats_.hits; }
  void count_miss() { ++stats_.misses; }
  /// Extract every valid line (used when draining).
  [[nodiscard]] std::vector<Evicted> drain();

  [[nodiscard]] const LevelStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t sets() const { return sets_; }
  [[nodiscard]] int ways() const { return cfg_.ways; }

 private:
  /// One way: `key` packs the tag above the dirty and valid bits (tag << 2
  /// | dirty << 1 | valid), next to the LRU stamp.
  struct Line {
    std::uint64_t key = 0;
    std::uint64_t lru = 0;
  };
  static_assert(sizeof(Line) == 16);
  static constexpr std::uint64_t kValid = 1;
  static constexpr std::uint64_t kDirty = 2;

  [[nodiscard]] Line* set_begin(std::uint64_t set) {
    return &lines_[set * static_cast<std::size_t>(cfg_.ways)];
  }
  [[nodiscard]] Line* find(std::uint64_t line_addr);

  CacheConfig cfg_;
  std::size_t sets_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  LevelStats stats_;
};

/// Streaming-store detector: claims cache lines for sequential full-line
/// store runs after a short warmup, restarting at 4 KiB page boundaries
/// (the Grace automatic WA-evasion mechanism).
class ClaimDetector {
 public:
  explicit ClaimDetector(int warmup_lines) : warmup_(warmup_lines) {}
  [[nodiscard]] bool should_claim(std::uint64_t line_addr);

 private:
  int warmup_;
  std::uint64_t last_line_ = ~0ull;
  int run_ = 0;
};

/// Three-level exclusive hierarchy for one core plus a memory meter.
class CacheHierarchy {
 public:
  CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                 const CacheConfig& l3, WaMechanism wa,
                 int claim_warmup_lines = 2);

  void load(std::uint64_t addr);
  void store(std::uint64_t addr, StoreKind kind);
  /// The same accesses, addressed by line (addr / line bytes).  `cold`:
  /// the caller knows no access has touched this line since the hierarchy
  /// was built or drained, so it is resident nowhere.  The access then
  /// counts a miss at each level instead of probing, and fills as a probed
  /// miss would.
  void load_line(std::uint64_t line, bool cold);
  void store_line(std::uint64_t line, StoreKind kind, bool cold);
  /// Write back all dirty data to finalize the memory meter.
  void drain();

  [[nodiscard]] const MemoryStats& memory() const { return mem_; }
  [[nodiscard]] const CacheLevel& level(int i) const { return levels_[i]; }
  [[nodiscard]] std::uint64_t stored_lines() const { return stored_lines_; }
  /// Lines allocated by the claim detector without a memory read (Grace
  /// automatic WA evasion).  Consumed by the traffic cross-validation.
  [[nodiscard]] std::uint64_t claimed_lines() const { return claimed_lines_; }
  /// L1 hits answered by the most-recently-used rule, without a probe
  /// (already counted in level(0).stats().hits).
  [[nodiscard]] std::uint64_t mru_hits() const { return mru_hits_; }

  /// Run a sequential full-line store stream of `bytes` from `base`, drain,
  /// and return the Fig. 4 traffic ratio.
  [[nodiscard]] double store_stream_ratio(std::uint64_t base,
                                          std::size_t bytes, StoreKind kind);

  /// Hierarchy built from a model's cache geometry (the MDF `cache`
  /// directive: per-core L1/L2 plus an L3 share), so what-if cache edits
  /// flow into the trace simulator.  The WA mechanism still comes from the
  /// family preset; a single core below bandwidth saturation maps SpecI2M
  /// to plain write-allocate.
  [[nodiscard]] static CacheHierarchy for_model(const uarch::MachineModel& mm);

 private:
  /// Place a line into level `idx`, cascading victims downward; beyond the
  /// last level dirty victims are written to memory.
  void place(int idx, std::uint64_t line_addr, bool dirty);
  void access(std::uint64_t line_addr, bool is_store, bool claim, bool cold);

  /// The line last accessed in an L1 set, and whether it is known dirty.
  /// Only an access to a line of that set changes the set, so the line is
  /// resident there with the newest LRU stamp.
  struct MruLine {
    std::uint64_t line = ~0ull;  // none
    bool dirty = false;
  };

  int line_bytes_;
  WaMechanism wa_;
  std::vector<CacheLevel> levels_;
  std::vector<MruLine> mru_;  // per L1 set
  ClaimDetector detector_;
  MemoryStats mem_;
  std::uint64_t stored_lines_ = 0;
  std::uint64_t claimed_lines_ = 0;
  std::uint64_t mru_hits_ = 0;
};

}  // namespace incore::memsim

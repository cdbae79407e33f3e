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
/// policy (fill levels, write-back cascading, claims).
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
  /// Insert a line (must not be present); the displaced victim, if any, is
  /// reported through `evicted`.
  void insert(std::uint64_t line_addr, bool dirty, Evicted* evicted);
  /// Remove a line if present; returns whether it was dirty.
  bool remove(std::uint64_t line_addr, bool* was_dirty);
  /// Extract every valid line (used when draining).
  [[nodiscard]] std::vector<Evicted> drain();

  [[nodiscard]] const LevelStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t sets() const { return sets_; }
  [[nodiscard]] int ways() const { return cfg_.ways; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };
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
  /// Write back all dirty data to finalize the memory meter.
  void drain();

  [[nodiscard]] const MemoryStats& memory() const { return mem_; }
  [[nodiscard]] const CacheLevel& level(int i) const { return levels_[i]; }
  [[nodiscard]] std::uint64_t stored_lines() const { return stored_lines_; }
  /// Lines allocated by the claim detector without a memory read (Grace
  /// automatic WA evasion).  Consumed by the traffic cross-validation.
  [[nodiscard]] std::uint64_t claimed_lines() const { return claimed_lines_; }

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
  void access(std::uint64_t line_addr, bool is_store, bool claim);

  int line_bytes_;
  WaMechanism wa_;
  std::vector<CacheLevel> levels_;
  ClaimDetector detector_;
  MemoryStats mem_;
  std::uint64_t stored_lines_ = 0;
  std::uint64_t claimed_lines_ = 0;
};

}  // namespace incore::memsim

#pragma once
// A reference for the cache hierarchy's skip rules, shared by the
// cachesim and traffic tests: memsim::CacheHierarchy's policy (exclusive
// fills, victims cascading down, claims, non-temporal bypass) with every
// access probing L1, then L2 and L3, before it fills.  Nothing is
// answered without a probe, so comparing against it checks the
// most-recently-used rule and the cold marking; the memsim::CacheLevel
// primitives both sides share are covered by their own unit tests.

#include <cstdint>
#include <vector>

#include "memsim/cachesim.hpp"
#include "memsim/memsim.hpp"
#include "uarch/model.hpp"

namespace incore::test {

class ProbingHierarchy {
 public:
  ProbingHierarchy(const memsim::CacheConfig& l1, const memsim::CacheConfig& l2,
                   const memsim::CacheConfig& l3, memsim::WaMechanism wa,
                   int claim_warmup_lines)
      : line_bytes_(static_cast<std::uint64_t>(l1.line_bytes)),
        wa_(wa),
        detector_(claim_warmup_lines) {
    levels_.reserve(3);
    levels_.emplace_back(l1);
    levels_.emplace_back(l2);
    levels_.emplace_back(l3);
  }

  /// The geometry and claim policy memsim::CacheHierarchy::for_model uses.
  static ProbingHierarchy for_model(const uarch::MachineModel& mm) {
    const uarch::CacheParams& c = mm.cache;
    auto config = [&](long long bytes, int ways) {
      return memsim::CacheConfig{static_cast<std::size_t>(bytes), ways,
                                 c.line_bytes};
    };
    const memsim::MemSystemConfig p = memsim::preset(mm.micro());
    return ProbingHierarchy(
        config(c.l1_bytes, c.l1_ways), config(c.l2_bytes, c.l2_ways),
        config(c.l3_bytes, c.l3_ways),
        p.wa == memsim::WaMechanism::SpecI2M ? memsim::WaMechanism::None
                                             : p.wa,
        p.claim_detector_warmup_lines);
  }

  void load(std::uint64_t addr) { access(addr / line_bytes_, false, false); }

  void store(std::uint64_t addr, memsim::StoreKind kind) {
    const std::uint64_t line = addr / line_bytes_;
    ++stored_lines_;
    if (kind == memsim::StoreKind::NonTemporal) {
      ++mem_.lines_written;
      return;
    }
    const bool claim = wa_ == memsim::WaMechanism::AutomaticClaim &&
                       detector_.should_claim(line);
    access(line, true, claim);
  }

  void drain() {
    for (memsim::CacheLevel& lvl : levels_) {
      for (const memsim::CacheLevel::Evicted& ev : lvl.drain()) {
        if (ev.dirty) ++mem_.lines_written;
      }
    }
  }

  [[nodiscard]] const memsim::CacheLevel& level(int i) const {
    return levels_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const memsim::MemoryStats& memory() const { return mem_; }
  [[nodiscard]] std::uint64_t stored_lines() const { return stored_lines_; }
  [[nodiscard]] std::uint64_t claimed_lines() const { return claimed_lines_; }

 private:
  void place(std::size_t idx, std::uint64_t line, bool dirty) {
    if (idx == levels_.size()) {
      if (dirty) ++mem_.lines_written;
      return;
    }
    memsim::CacheLevel::Evicted ev;
    levels_[idx].insert(line, dirty, &ev);
    if (ev.valid) place(idx + 1, ev.line_addr, ev.dirty);
  }

  void access(std::uint64_t line, bool is_store, bool claim) {
    if (levels_[0].probe(line, is_store)) return;
    for (std::size_t i = 1; i < levels_.size(); ++i) {
      bool dirty = false;
      if (levels_[i].take(line, &dirty)) {
        place(0, line, dirty || is_store);
        return;
      }
    }
    if (claim) {
      ++claimed_lines_;
    } else {
      ++mem_.lines_read;
    }
    place(0, line, is_store);
  }

  std::uint64_t line_bytes_;
  memsim::WaMechanism wa_;
  std::vector<memsim::CacheLevel> levels_;
  memsim::ClaimDetector detector_;
  memsim::MemoryStats mem_;
  std::uint64_t stored_lines_ = 0;
  std::uint64_t claimed_lines_ = 0;
};

}  // namespace incore::test

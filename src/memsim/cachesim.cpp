#include "memsim/cachesim.hpp"

#include <algorithm>

namespace incore::memsim {

CacheLevel::CacheLevel(const CacheConfig& cfg) : cfg_(cfg) {
  const std::size_t lines = std::max<std::size_t>(
      1, cfg.size_bytes / static_cast<std::size_t>(cfg.line_bytes));
  sets_ = std::max<std::size_t>(1, lines / static_cast<std::size_t>(cfg.ways));
  lines_.assign(sets_ * static_cast<std::size_t>(cfg.ways), Line{});
}

CacheLevel::Line* CacheLevel::find(std::uint64_t line_addr) {
  const std::uint64_t set = line_addr % sets_;
  const std::uint64_t tag = line_addr / sets_;
  for (int w = 0; w < cfg_.ways; ++w) {
    Line& l = lines_[set * static_cast<std::size_t>(cfg_.ways) +
                     static_cast<std::size_t>(w)];
    if (l.valid && l.tag == tag) return &l;
  }
  return nullptr;
}

bool CacheLevel::probe(std::uint64_t line_addr, bool make_dirty) {
  ++tick_;
  if (Line* l = find(line_addr)) {
    ++stats_.hits;
    l->lru = tick_;
    l->dirty |= make_dirty;
    return true;
  }
  ++stats_.misses;
  return false;
}

void CacheLevel::insert(std::uint64_t line_addr, bool dirty, Evicted* evicted) {
  ++tick_;
  const std::uint64_t set = line_addr % sets_;
  const std::uint64_t tag = line_addr / sets_;
  Line* victim = nullptr;
  for (int w = 0; w < cfg_.ways; ++w) {
    Line& l = lines_[set * static_cast<std::size_t>(cfg_.ways) +
                     static_cast<std::size_t>(w)];
    if (!l.valid) {
      victim = &l;
      break;
    }
    if (victim == nullptr || l.lru < victim->lru) victim = &l;
  }
  if (evicted != nullptr) {
    evicted->valid = victim->valid;
    evicted->dirty = victim->dirty;
    evicted->line_addr = victim->tag * sets_ + set;
  }
  if (victim->valid) ++stats_.evictions;
  victim->valid = true;
  victim->tag = tag;
  victim->dirty = dirty;
  victim->lru = tick_;
}

bool CacheLevel::remove(std::uint64_t line_addr, bool* was_dirty) {
  if (Line* l = find(line_addr)) {
    if (was_dirty != nullptr) *was_dirty = l->dirty;
    l->valid = false;
    l->dirty = false;
    return true;
  }
  return false;
}

std::vector<CacheLevel::Evicted> CacheLevel::drain() {
  std::vector<Evicted> out;
  for (std::size_t s = 0; s < sets_; ++s) {
    for (int w = 0; w < cfg_.ways; ++w) {
      Line& l = lines_[s * static_cast<std::size_t>(cfg_.ways) +
                       static_cast<std::size_t>(w)];
      if (l.valid) {
        out.push_back(Evicted{true, l.dirty, l.tag * sets_ + s});
        l.valid = false;
        l.dirty = false;
      }
    }
  }
  return out;
}

bool ClaimDetector::should_claim(std::uint64_t line_addr) {
  constexpr std::uint64_t kLinesPerPage = 4096 / 64;
  const bool sequential = line_addr == last_line_ + 1 && last_line_ != ~0ull;
  const bool page_start = line_addr % kLinesPerPage == 0;
  if (!sequential || page_start) run_ = 0;
  const bool claim = run_ >= warmup_;
  ++run_;
  last_line_ = line_addr;
  return claim;
}

CacheHierarchy::CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                               const CacheConfig& l3, WaMechanism wa,
                               int claim_warmup_lines)
    : line_bytes_(l1.line_bytes), wa_(wa), detector_(claim_warmup_lines) {
  levels_.reserve(3);
  levels_.emplace_back(l1);
  levels_.emplace_back(l2);
  levels_.emplace_back(l3);
}

void CacheHierarchy::place(int idx, std::uint64_t line_addr, bool dirty) {
  if (idx >= static_cast<int>(levels_.size())) {
    if (dirty) ++mem_.lines_written;
    return;
  }
  CacheLevel::Evicted ev;
  levels_[static_cast<std::size_t>(idx)].insert(line_addr, dirty, &ev);
  if (ev.valid) place(idx + 1, ev.line_addr, ev.dirty);
}

void CacheHierarchy::access(std::uint64_t line_addr, bool is_store,
                            bool claim) {
  // L1 hit?
  if (levels_[0].probe(line_addr, is_store)) return;
  // Hit in a lower level: promote to L1 (exclusive hierarchy).
  for (std::size_t i = 1; i < levels_.size(); ++i) {
    CacheLevel& lvl = levels_[i];
    if (lvl.probe(line_addr, false)) {
      bool dirty = false;
      lvl.remove(line_addr, &dirty);
      place(0, line_addr, dirty || is_store);
      return;
    }
  }
  // Miss everywhere: claim allocates without a memory read.
  if (claim) {
    ++claimed_lines_;
  } else {
    ++mem_.lines_read;
  }
  place(0, line_addr, is_store);
}

void CacheHierarchy::load(std::uint64_t addr) {
  access(addr / static_cast<std::uint64_t>(line_bytes_), false, false);
}

void CacheHierarchy::store(std::uint64_t addr, StoreKind kind) {
  const std::uint64_t line = addr / static_cast<std::uint64_t>(line_bytes_);
  ++stored_lines_;
  if (kind == StoreKind::NonTemporal) {
    ++mem_.lines_written;  // full-line write combining straight to memory
    return;
  }
  const bool claim =
      wa_ == WaMechanism::AutomaticClaim && detector_.should_claim(line);
  access(line, true, claim);
}

void CacheHierarchy::drain() {
  for (auto& lvl : levels_) {
    for (const auto& ev : lvl.drain()) {
      if (ev.dirty) ++mem_.lines_written;
    }
  }
}

double CacheHierarchy::store_stream_ratio(std::uint64_t base,
                                          std::size_t bytes, StoreKind kind) {
  const auto lb = static_cast<std::uint64_t>(line_bytes_);
  const std::uint64_t lines = bytes / lb;
  for (std::uint64_t i = 0; i < lines; ++i) store(base + i * lb, kind);
  drain();
  const double stored = static_cast<double>(lines);
  const double traffic =
      static_cast<double>(mem_.lines_read + mem_.lines_written);
  return stored > 0 ? traffic / stored : 0.0;
}

CacheHierarchy CacheHierarchy::for_model(const uarch::MachineModel& mm) {
  const uarch::CacheParams& c = mm.cache;
  const CacheConfig l1{static_cast<std::size_t>(c.l1_bytes), c.l1_ways,
                       c.line_bytes};
  const CacheConfig l2{static_cast<std::size_t>(c.l2_bytes), c.l2_ways,
                       c.line_bytes};
  const CacheConfig l3{static_cast<std::size_t>(c.l3_bytes), c.l3_ways,
                       c.line_bytes};
  const WaMechanism wa = preset(mm.micro()).wa;
  // SpecI2M is a bandwidth-gated controller feature (modeled analytically);
  // a single core below saturation keeps its write-allocates.
  return CacheHierarchy(l1, l2, l3,
                        wa == WaMechanism::SpecI2M ? WaMechanism::None : wa,
                        preset(mm.micro()).claim_detector_warmup_lines);
}

}  // namespace incore::memsim

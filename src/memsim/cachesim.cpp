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
  const std::uint64_t key = (line_addr / sets_) << 2 | kValid;
  Line* way = set_begin(line_addr % sets_);
  for (int w = 0; w < cfg_.ways; ++w, ++way) {
    if ((way->key & ~kDirty) == key) return way;
  }
  return nullptr;
}

bool CacheLevel::probe(std::uint64_t line_addr, bool make_dirty) {
  if (Line* l = find(line_addr)) {
    ++stats_.hits;
    l->lru = ++tick_;
    if (make_dirty) l->key |= kDirty;
    return true;
  }
  ++stats_.misses;
  return false;
}

bool CacheLevel::take(std::uint64_t line_addr, bool* was_dirty) {
  if (Line* l = find(line_addr)) {
    ++stats_.hits;
    *was_dirty = (l->key & kDirty) != 0;
    l->key = 0;
    return true;
  }
  ++stats_.misses;
  return false;
}

void CacheLevel::insert(std::uint64_t line_addr, bool dirty, Evicted* evicted) {
  const std::uint64_t set = line_addr % sets_;
  Line* const first = set_begin(set);
  Line* victim = nullptr;
  for (Line* l = first; l != first + cfg_.ways; ++l) {
    if ((l->key & kValid) == 0) {
      victim = l;
      break;
    }
    if (victim == nullptr || l->lru < victim->lru) victim = l;
  }
  const bool victim_valid = (victim->key & kValid) != 0;
  if (evicted != nullptr) {
    evicted->valid = victim_valid;
    evicted->dirty = (victim->key & kDirty) != 0;
    evicted->line_addr = (victim->key >> 2) * sets_ + set;
  }
  if (victim_valid) ++stats_.evictions;
  victim->key = (line_addr / sets_) << 2 | (dirty ? kDirty : 0) | kValid;
  victim->lru = ++tick_;
}

std::vector<CacheLevel::Evicted> CacheLevel::drain() {
  std::vector<Evicted> out;
  for (std::size_t s = 0; s < sets_; ++s) {
    Line* const first = set_begin(s);
    for (Line* l = first; l != first + cfg_.ways; ++l) {
      if ((l->key & kValid) != 0) {
        out.push_back(
            Evicted{true, (l->key & kDirty) != 0, (l->key >> 2) * sets_ + s});
        l->key = 0;
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
  mru_.assign(levels_[0].sets(), MruLine{});
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
                            bool claim, bool cold) {
  MruLine& mru = mru_[line_addr % mru_.size()];
  if (mru.line == line_addr && (mru.dirty || !is_store)) {
    levels_[0].count_hit();
    ++mru_hits_;
    return;
  }
  // A load that hits L1 leaves the line's dirty bit as it was, unknown
  // here: the record then claims only what is known.
  mru = {line_addr, is_store};
  if (cold) {
    for (CacheLevel& lvl : levels_) lvl.count_miss();
  } else {
    // L1 hit?
    if (levels_[0].probe(line_addr, is_store)) return;
    // Hit in a lower level: promote to L1 (exclusive hierarchy).
    for (std::size_t i = 1; i < levels_.size(); ++i) {
      bool dirty = false;
      if (levels_[i].take(line_addr, &dirty)) {
        mru.dirty = dirty || is_store;
        place(0, line_addr, mru.dirty);
        return;
      }
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
  load_line(addr / static_cast<std::uint64_t>(line_bytes_), false);
}

void CacheHierarchy::store(std::uint64_t addr, StoreKind kind) {
  store_line(addr / static_cast<std::uint64_t>(line_bytes_), kind, false);
}

void CacheHierarchy::load_line(std::uint64_t line, bool cold) {
  access(line, false, false, cold);
}

void CacheHierarchy::store_line(std::uint64_t line, StoreKind kind,
                                bool cold) {
  ++stored_lines_;
  if (kind == StoreKind::NonTemporal) {
    ++mem_.lines_written;  // full-line write combining straight to memory
    return;
  }
  const bool claim =
      wa_ == WaMechanism::AutomaticClaim && detector_.should_claim(line);
  access(line, true, claim, cold);
}

void CacheHierarchy::drain() {
  for (auto& lvl : levels_) {
    for (const auto& ev : lvl.drain()) {
      if (ev.dirty) ++mem_.lines_written;
    }
  }
  mru_.assign(mru_.size(), MruLine{});
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

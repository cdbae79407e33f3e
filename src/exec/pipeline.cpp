#include "exec/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <optional>

#include "dataflow/dataflow.hpp"
#include "support/error.hpp"

namespace incore::exec {
namespace {

using asmir::Instruction;
using asmir::MemOperand;
using asmir::Program;
using asmir::RegClass;
using asmir::Register;

constexpr double kInf = 1e30;
/// The simulator's work cap: a run that has not retired every instruction
/// after this many cycles stops and reports what it measured so far.
constexpr std::uint64_t kMaxCycles = 30'000'000ULL;
constexpr std::uint64_t kNoId = ~std::uint64_t{0};
constexpr int kNoReg = -1;

struct UopSpec {
  uarch::PortMask mask = 0;
  double occupancy = 1.0;  // fractional for sub-cycle divider reciprocals
};

using dataflow::is_zero_register;

// Rename-time idiom recognition (zero idioms, eliminable moves) comes from
// the shared dataflow table so the testbed and the static passes can never
// disagree: see dataflow/idioms.hpp.
using dataflow::is_zero_idiom;
using dataflow::is_register_move;

/// Static (per program position) description after model resolution and
/// config transforms.  Registers are dense indices into the program's
/// register table, memory operands indices into its distinct symbolic
/// locations (`Prepared`).
struct StaticInstr {
  std::vector<UopSpec> uops;
  double latency = 1.0;      // total (load + compute)
  double load_lat = 0.0;     // folded-load component
  double chain_lat = 1.0;    // value-producing component
  bool split_load = false;   // folded load + compute micro-ops
  double inv_tput = 0.0;
  double uop_count = 1.0;
  bool is_load = false;
  bool is_store = false;
  bool is_branch = false;
  bool eliminated_move = false;
  bool zero_idiom = false;
  // Register reads split into address inputs (gate the AGU / issue of
  // memory operations and feed the post-index write-back) and data inputs
  // (a store's data does not gate its address generation).
  std::vector<int> addr_regs;
  std::vector<int> data_regs;
  int acc_reg = kNoReg;  // accumulator input (FMA class)
  double acc_lat = 0.0;
  std::vector<int> write_regs;  // excluding the write-back base
  int wb_reg = kNoReg;          // post-index write-back base
  int mem = -1;                 // symbolic location of a load / store
  int unit = -1;                // serializing unit when inv_tput > 1.25
};

/// A memory operand's symbolic location.  It is renamed by the versions of
/// its address registers: a pointer bump moves every later access to a new
/// location.
struct MemLoc {
  std::uint32_t base_root = 0;
  std::uint32_t index_root = 0;
  long long disp = 0;
  int base_reg = kNoReg;
  int index_reg = kNoReg;
};

struct Prepared {
  std::vector<StaticInstr> statics;
  std::vector<MemLoc> mems;
  int regs = 0;
  int units = 0;
  /// Register writes per loop iteration, by register (version growth).
  std::vector<std::uint64_t> writes_per_iter;
  /// Every time-valued constant is a multiple of 2^-10 below 2^40, so every
  /// time the simulation computes is exact and shifting the state by whole
  /// cycles commutes with the simulation (the periodic jump's precondition).
  bool exact_times = true;
  std::size_t max_producers = 0;
  std::size_t max_uops = 0;
};

bool has_vector_operand(const Instruction& ins) {
  for (const auto& op : ins.ops) {
    if (op.is_reg() && op.reg().cls == RegClass::Vector) return true;
  }
  return false;
}

bool exact_time(double v) {
  const double scaled = std::ldexp(v, 10);
  return std::fabs(v) < std::ldexp(1.0, 40) && scaled == std::floor(scaled);
}

Prepared prepare(const Program& prog, const uarch::MachineModel& mm,
                 const PipelineConfig& cfg) {
  const int n = static_cast<int>(prog.code.size());
  const std::uint32_t kFlagsRoot = Register{RegClass::Flags, 0, 1}.root_id();
  // Raw register roots per instruction, mapped to dense indices below.
  struct Roots {
    std::vector<std::uint32_t> addr, data, write;
    std::optional<std::uint32_t> acc, wb;
    std::optional<MemLoc> mem;
  };
  Prepared out;
  out.statics.resize(static_cast<std::size_t>(n));
  std::vector<Roots> roots(static_cast<std::size_t>(n));
  std::vector<std::string> unit_forms;
  for (int i = 0; i < n; ++i) {
    const Instruction& ins = prog.code[static_cast<std::size_t>(i)];
    StaticInstr& s = out.statics[static_cast<std::size_t>(i)];
    Roots& rt = roots[static_cast<std::size_t>(i)];
    const uarch::Resolved r = mm.resolve(ins);
    const std::string form = ins.form();
    s.latency = r.latency;
    s.load_lat = r.load_latency;
    s.chain_lat = r.chain_latency;
    s.split_load = r.has_load && (r.latency - r.chain_latency) > 1e-9;
    s.inv_tput = r.inverse_throughput;
    s.uop_count = std::max(1.0, r.uops);
    s.is_load = r.has_load;
    s.is_store = r.has_store;
    s.is_branch = ins.is_branch;

    // Scheduling-table transforms (MCA configuration): the FP inflation
    // applies to the compute component, the load inflation to the load.
    if (has_vector_operand(ins) && !s.is_store) {
      s.chain_lat = s.chain_lat * cfg.fp_latency_scale + cfg.fp_latency_add;
    }
    if (s.is_load) s.load_lat += cfg.load_latency_add;
    if (auto it = cfg.latency_overrides.find(form);
        it != cfg.latency_overrides.end()) {
      s.chain_lat = std::max(1.0, it->second - (s.split_load ? s.load_lat : 0.0));
    }
    if (s.is_load && !s.split_load) {
      // Pure loads: the chain latency *is* the load latency.
      s.chain_lat += cfg.load_latency_add;
    }
    s.latency = s.split_load ? s.load_lat + s.chain_lat : s.chain_lat;
    double occupancy_scale = 1.0;
    if (auto it = cfg.tput_overrides.find(form);
        it != cfg.tput_overrides.end()) {
      if (s.inv_tput > 0.0) occupancy_scale = it->second / s.inv_tput;
      s.inv_tput = it->second;
    }
    const bool is_fp = has_vector_operand(ins);
    const bool is_mem = s.is_load || s.is_store;
    // Keep only the lowest-numbered alternatives (coarse sched model).
    auto limit_mask = [](uarch::PortMask mask, int limit) {
      if (limit <= 0) return mask;
      uarch::PortMask limited = 0;
      int kept = 0;
      uarch::PortMask rest = mask;
      while (rest && kept < limit) {
        uarch::PortMask low = rest & (~rest + 1);
        limited |= low;
        rest &= ~low;
        ++kept;
      }
      return limited ? limited : mask;
    };
    for (const uarch::PortUse& pu : r.port_uses) {
      double occ = std::max(0.25, pu.cycles * occupancy_scale);
      uarch::PortMask mask = pu.mask;
      if (is_mem) {
        mask = limit_mask(mask, cfg.mem_port_limit);
      } else if (is_fp) {
        mask = limit_mask(mask, cfg.fp_port_limit);
      }
      s.uops.push_back(UopSpec{mask, occ});
    }

    s.zero_idiom = cfg.zero_idiom_elimination && is_zero_idiom(ins);
    s.eliminated_move = cfg.move_elimination && is_register_move(ins);
    if (s.zero_idiom || s.eliminated_move) {
      s.uops.clear();
      s.latency = s.chain_lat = s.load_lat = 0.0;
      s.split_load = false;
      s.inv_tput = 0.0;
    }

    const MemOperand* mem = ins.mem_operand();
    std::uint32_t addr0 = 0, addr1 = 0;
    int n_addr = 0;
    if (mem) {
      if (mem->base && !is_zero_register(prog, *mem->base))
        addr0 = mem->base->root_id(), ++n_addr;
      if (mem->index && !is_zero_register(prog, *mem->index))
        addr1 = mem->index->root_id(), ++n_addr;
    }
    if (cfg.model_accumulator_forwarding && r.accumulator_latency > 0) {
      s.acc_lat = r.accumulator_latency;
      for (const auto& op : ins.ops) {
        if (op.is_reg() && op.read && op.write) rt.acc = op.reg().root_id();
      }
    }
    if (!s.zero_idiom) {
      for (const Register& reg : ins.reads()) {
        if (is_zero_register(prog, reg)) continue;
        const std::uint32_t root = reg.root_id();
        if (n_addr >= 1 && root == addr0) continue;  // handled below
        if (n_addr >= 2 && root == addr1) continue;
        if (s.acc_lat > 0 && root == rt.acc) continue;  // tracked separately
        rt.data.push_back(root);
      }
      if (ins.reads_flags) rt.data.push_back(kFlagsRoot);
      if (n_addr >= 1) rt.addr.push_back(addr0);
      if (n_addr >= 2) rt.addr.push_back(addr1);
    }
    if (mem && mem->base_writeback && mem->base &&
        !is_zero_register(prog, *mem->base)) {
      rt.wb = mem->base->root_id();
    }
    for (const Register& reg : ins.writes()) {
      if (is_zero_register(prog, reg)) continue;
      const std::uint32_t root = reg.root_id();
      if (rt.wb && root == *rt.wb) continue;  // AGU result
      rt.write.push_back(root);
    }
    if (mem && !mem->is_gather && (s.is_load || s.is_store)) {
      MemLoc loc;
      loc.base_root = mem->base ? mem->base->root_id() : 0xffffffffu;
      loc.index_root = mem->index ? mem->index->root_id() : 0xfffffffeu;
      loc.disp = mem->displacement;
      rt.mem = loc;
    }
    if (s.inv_tput > 1.25) {
      auto it = std::find(unit_forms.begin(), unit_forms.end(), form);
      s.unit = static_cast<int>(it - unit_forms.begin());
      if (it == unit_forms.end()) unit_forms.push_back(form);
    }
  }
  out.units = static_cast<int>(unit_forms.size());

  // Dense register table over every root the body reads, writes or
  // addresses through.
  std::vector<std::uint32_t> table;
  for (const Roots& rt : roots) {
    table.insert(table.end(), rt.addr.begin(), rt.addr.end());
    table.insert(table.end(), rt.data.begin(), rt.data.end());
    table.insert(table.end(), rt.write.begin(), rt.write.end());
    if (rt.acc) table.push_back(*rt.acc);
    if (rt.wb) table.push_back(*rt.wb);
    if (rt.mem) {
      if (rt.mem->base_root != 0xffffffffu) table.push_back(rt.mem->base_root);
      if (rt.mem->index_root != 0xfffffffeu)
        table.push_back(rt.mem->index_root);
    }
  }
  std::sort(table.begin(), table.end());
  table.erase(std::unique(table.begin(), table.end()), table.end());
  out.regs = static_cast<int>(table.size());
  out.writes_per_iter.assign(table.size(), 0);
  auto dense = [&table](std::uint32_t root) {
    return static_cast<int>(std::lower_bound(table.begin(), table.end(), root) -
                            table.begin());
  };
  auto dense_all = [&dense](const std::vector<std::uint32_t>& rs) {
    std::vector<int> v;
    v.reserve(rs.size());
    for (std::uint32_t r : rs) v.push_back(dense(r));
    return v;
  };
  for (std::size_t i = 0; i < out.statics.size(); ++i) {
    StaticInstr& s = out.statics[i];
    const Roots& rt = roots[i];
    s.addr_regs = dense_all(rt.addr);
    s.data_regs = dense_all(rt.data);
    s.write_regs = dense_all(rt.write);
    if (rt.acc) s.acc_reg = dense(*rt.acc);
    if (rt.wb) s.wb_reg = dense(*rt.wb);
    for (int w : s.write_regs) ++out.writes_per_iter[static_cast<std::size_t>(w)];
    if (s.wb_reg != kNoReg) ++out.writes_per_iter[static_cast<std::size_t>(s.wb_reg)];
    if (rt.mem) {
      MemLoc loc = *rt.mem;
      auto it = std::find_if(out.mems.begin(), out.mems.end(),
                             [&loc](const MemLoc& m) {
                               return m.base_root == loc.base_root &&
                                      m.index_root == loc.index_root &&
                                      m.disp == loc.disp;
                             });
      s.mem = static_cast<int>(it - out.mems.begin());
      if (it == out.mems.end()) {
        if (loc.base_root != 0xffffffffu) loc.base_reg = dense(loc.base_root);
        if (loc.index_root != 0xfffffffeu) loc.index_reg = dense(loc.index_root);
        out.mems.push_back(loc);
      }
    }
    const bool acc = s.acc_lat > 0 && s.acc_reg != kNoReg;
    out.max_producers =
        std::max(out.max_producers, s.addr_regs.size() + s.data_regs.size() +
                                        (s.is_load && s.mem >= 0 ? 1 : 0) +
                                        (acc ? 1 : 0));
    out.max_uops = std::max(out.max_uops, s.uops.size());
    for (double v : {s.latency, s.load_lat, s.chain_lat, s.acc_lat,
                     s.unit >= 0 ? s.inv_tput : 0.0})
      out.exact_times = out.exact_times && exact_time(v);
    for (const UopSpec& u : s.uops)
      out.exact_times = out.exact_times && exact_time(u.occupancy);
  }
  out.exact_times = out.exact_times && exact_time(cfg.taken_branch_bubble);
  return out;
}

/// Reference to a producing dynamic instruction; `wb` selects its AGU
/// (write-back) result instead of the data result.
struct ProducerRef {
  std::uint64_t id = kNoId;
  bool wb = false;
};

/// One dynamic instruction, in flight or recently retired (its result
/// times stay readable by younger consumers until the slot is reused).
struct Slot {
  double completion = kInf;  // data result time; kInf until known
  double wb_time = kInf;     // AGU write-back result time
  double dispatch_cycle = 0.0;
  double issue_cycle = -1.0;
  int static_idx = 0;
  bool issued = false;
  std::uint16_t n_addr = 0;
  std::uint16_t n_data = 0;
  std::uint16_t n_acc = 0;
};

/// The most recent store to a symbolic location, with the address-register
/// versions it was dispatched under.
struct StoreRec {
  std::uint64_t id = kNoId;
  std::uint64_t base_ver = 0;
  std::uint64_t index_ver = 0;
};

/// The normalized pipeline state at a cycle start (Engine::serialize).
struct Snapshot {
  std::vector<std::uint64_t> front;  // fetch and rename, relative to pending
  std::vector<std::uint64_t> back;   // ports, units, then the ROB entries
  std::size_t globals = 0;           // back[0, globals): ports and units
  std::vector<std::size_t> entry_end;  // end of each ROB entry in `back`
};

/// A snapshot whose state may recur one period later.
struct Candidate {
  std::uint64_t cycle = 0;
  std::uint64_t retired = 0;
  std::uint64_t pending = 0;
  std::uint64_t period_cycles = 0;
  std::uint64_t period_ids = 0;
  Snapshot state;
  double fetch_cycle = 0.0;
  std::vector<double> static_use;
  double inflight_uops = 0.0;
  int inflight_loads = 0;
  int inflight_stores = 0;
};

/// Per-cycle record of the candidate period, replayed for skipped periods.
struct PeriodLog {
  std::vector<std::uint64_t> retired;   // retired since the period start
  std::vector<std::size_t> adds_end;    // end of the cycle's port additions
  std::vector<std::pair<int, double>> adds;  // port, occupancy
  std::vector<char> stalled;
  void clear() {
    retired.clear();
    adds_end.clear();
    adds.clear();
    stalled.clear();
  }
};

class Engine {
 public:
  Engine(const Program& prog, const uarch::MachineModel& mm,
         const PipelineConfig& cfg, PipelineResult& result);
  void run(bool periodic_jump);

 private:
  [[nodiscard]] Slot& slot(std::uint64_t id) { return ring_[id & ring_mask_]; }
  [[nodiscard]] const Slot& slot(std::uint64_t id) const {
    return ring_[id & ring_mask_];
  }
  [[nodiscard]] ProducerRef* producers(std::uint64_t id) {
    return prod_.data() + (id & ring_mask_) * prep_.max_producers;
  }
  [[nodiscard]] const ProducerRef* producers(std::uint64_t id) const {
    return prod_.data() + (id & ring_mask_) * prep_.max_producers;
  }
  [[nodiscard]] int* bound_ports(std::uint64_t id) {
    return ports_.data() + (id & ring_mask_) * prep_.max_uops;
  }
  [[nodiscard]] const int* bound_ports(std::uint64_t id) const {
    return ports_.data() + (id & ring_mask_) * prep_.max_uops;
  }
  [[nodiscard]] double time_of(const ProducerRef& p) const {
    const Slot& s = slot(p.id);
    return p.wb ? s.wb_time : s.completion;
  }
  [[nodiscard]] std::uint64_t version(int reg) const {
    return reg == kNoReg ? 0 : reg_version_[static_cast<std::size_t>(reg)];
  }

  void fetch_more(std::size_t want);
  void retire(double now);
  bool try_issue(std::uint64_t id, double now);
  void issue(double now);
  void resolve_stores(double now);
  void dispatch(double now);

  void at_snapshot();
  void disarm();
  void serialize(double now, Snapshot& out) const;
  [[nodiscard]] bool same_creation(std::uint64_t a, std::uint64_t b) const;
  [[nodiscard]] std::uint64_t certified_periods() const;
  [[nodiscard]] std::uint64_t binding_periods() const;
  void jump(std::uint64_t periods);

  const PipelineConfig& cfg_;
  const uarch::CoreResources& res_;
  PipelineResult& result_;
  const Prepared prep_;
  const int n_;
  const int port_count_;
  const std::uint64_t total_;
  const std::uint64_t measure_from_;
  const std::uint64_t measure_to_;

  // Dynamic instructions [retired_, pending_) are in the ROB; the ring also
  // keeps the n before them, the oldest any consumer can still read.
  std::vector<Slot> ring_;
  std::vector<ProducerRef> prod_;
  std::vector<int> ports_;  // static port binding (LLVM-MCA style)
  std::uint64_t ring_mask_ = 0;
  std::vector<std::uint64_t> unissued_;        // age order
  std::vector<std::uint64_t> pending_stores_;  // issued, data time unknown
  std::vector<ProducerRef> last_writer_;       // by register
  std::vector<std::uint64_t> reg_version_;     // by register
  std::vector<StoreRec> last_store_;           // by symbolic location

  std::vector<double> port_free_;
  std::vector<double> port_busy_measured_;
  std::vector<double> static_use_;
  std::vector<double> unit_next_;  // serializing units, by StaticInstr::unit
  std::vector<int> chosen_;

  std::uint64_t cycle_ = 0;
  std::uint64_t next_fetch_id_ = 0;
  std::uint64_t pending_ = 0;  // next id to dispatch
  std::uint64_t retired_ = 0;
  double fetch_cycle_ = 0.0;
  int fetch_slots_ = 0;
  // Fetch queue: fetch_q_[i] is the fetch time of dynamic instruction
  // (pending_ + i).  Invariant: next_fetch_id_ == pending_ + fetch_q_.size().
  std::deque<double> fetch_q_;
  double inflight_uops_ = 0.0;
  int inflight_loads_ = 0;
  int inflight_stores_ = 0;
  double measure_start_ = -1.0;
  double measure_end_marker_ = -1.0;

  // Periodic jump.
  bool armed_ = false;
  /// Past times need no exact value (no late accumulator forwarding reads
  /// one), and micro-op counts are exact, so the ROB may grow by whole
  /// iterations per period (the front end running ahead of the back end).
  bool may_grow_ = false;
  std::uint64_t next_snapshot_ = 0;   // retired count of the next snapshot
  std::int64_t last_fetch_block_ = -1;  // last cycle fetch stalled dispatch
  std::int64_t last_stall_ = -1;        // last cycle ROB/LQ/SQ stalled dispatch
  std::uint64_t examined_max_ = 0;      // youngest id the scheduler examined
  // Smallest ROB / load / store queue headroom met by a dispatch since the
  // candidate snapshot.
  double headroom_uops_ = 0.0;
  int headroom_loads_ = 0;
  int headroom_stores_ = 0;
  struct Seen {
    std::uint64_t hash, cycle, retired;
  };
  std::vector<Seen> seen_;
  std::optional<Candidate> cand_;
  PeriodLog log_;
  Snapshot state_;
  // Static binding: smallest margin by which each port lost to another in
  // the candidate period, by (loser, winner, loser is the lower port).
  std::vector<double> binding_margin_;
};

Engine::Engine(const Program& prog, const uarch::MachineModel& mm,
               const PipelineConfig& cfg, PipelineResult& result)
    : cfg_(cfg),
      res_(mm.resources()),
      result_(result),
      prep_(prepare(prog, mm, cfg)),
      n_(static_cast<int>(prog.code.size())),
      port_count_(static_cast<int>(mm.port_count())),
      total_(static_cast<std::uint64_t>(cfg.warmup_iterations +
                                        cfg.iterations) *
             static_cast<std::uint64_t>(n_)),
      measure_from_(static_cast<std::uint64_t>(cfg.warmup_iterations) *
                    static_cast<std::uint64_t>(n_)),
      // End marker: the same body position (first instruction), K
      // iterations later, so the window length is exactly K steady-state
      // iterations.
      measure_to_(static_cast<std::uint64_t>(cfg.warmup_iterations +
                                             cfg.iterations - 1) *
                  static_cast<std::uint64_t>(n_)) {
  // Every ROB entry holds at least one micro-op, so at most rob_size are in
  // flight.
  const auto span = static_cast<std::uint64_t>(std::max(0, res_.rob_size)) +
                    static_cast<std::uint64_t>(n_) + 2;
  const std::uint64_t cap = std::bit_ceil(span);
  ring_mask_ = cap - 1;
  ring_.resize(cap);
  prod_.resize(cap * prep_.max_producers);
  if (!cfg_.dynamic_port_selection) ports_.resize(cap * prep_.max_uops, -1);
  last_writer_.resize(static_cast<std::size_t>(prep_.regs));
  reg_version_.resize(static_cast<std::size_t>(prep_.regs), 0);
  last_store_.resize(prep_.mems.size());
  const auto ports = static_cast<std::size_t>(port_count_);
  port_free_.assign(ports, 0.0);
  port_busy_measured_.assign(ports, 0.0);
  static_use_.assign(ports, 0.0);
  unit_next_.assign(static_cast<std::size_t>(prep_.units), 0.0);
  chosen_.resize(prep_.max_uops);

  result_.dispatch_width = cfg_.dispatch_width_override > 0
                               ? cfg_.dispatch_width_override
                               : res_.rename_width;
  for (const StaticInstr& s : prep_.statics) {
    result_.uops_per_iteration += s.uop_count;
    if (s.eliminated_move) ++result_.eliminated_moves;
    if (s.zero_idiom) ++result_.eliminated_zero_idioms;
  }

  may_grow_ = true;
  for (const StaticInstr& s : prep_.statics)
    may_grow_ = may_grow_ && exact_time(s.uop_count) &&
                !(s.acc_lat > 0 && s.acc_reg != kNoReg);
}

void Engine::fetch_more(std::size_t want) {
  while (fetch_q_.size() < want && next_fetch_id_ < total_) {
    const int idx = static_cast<int>(next_fetch_id_ % static_cast<std::uint64_t>(n_));
    fetch_q_.push_back(fetch_cycle_);
    ++fetch_slots_;
    if (fetch_slots_ >= res_.decode_width) {
      fetch_cycle_ += 1.0;
      fetch_slots_ = 0;
    }
    const StaticInstr& s = prep_.statics[static_cast<std::size_t>(idx)];
    if (s.is_branch && idx == n_ - 1 && cfg_.taken_branch_bubble > 0.0) {
      // The taken branch ends the current fetch group; the redirected
      // fetch resumes after the (average) redirect bubble.
      fetch_cycle_ += cfg_.taken_branch_bubble;
      fetch_slots_ = 0;
    }
    ++next_fetch_id_;
  }
}

void Engine::retire(double now) {
  int retire_budget = res_.retire_width;
  while (retired_ < pending_ && retire_budget > 0) {
    const Slot& head = slot(retired_);
    if (!head.issued || head.completion > now) break;
    const StaticInstr& s = prep_.statics[static_cast<std::size_t>(head.static_idx)];
    inflight_uops_ -= s.uop_count;
    if (s.is_load) --inflight_loads_;
    if (s.is_store) --inflight_stores_;
    if (retired_ == measure_from_ && measure_start_ < 0.0) measure_start_ = now;
    if (retired_ == measure_to_ && measure_end_marker_ < 0.0)
      measure_end_marker_ = now;
    if (cfg_.timeline_iterations > 0 &&
        retired_ < static_cast<std::uint64_t>(cfg_.timeline_iterations) *
                       static_cast<std::uint64_t>(n_)) {
      TimelineEvent ev;
      ev.iteration = static_cast<int>(retired_ / static_cast<std::uint64_t>(n_));
      ev.index = static_cast<int>(retired_ % static_cast<std::uint64_t>(n_));
      ev.dispatch = head.dispatch_cycle;
      ev.issue = head.issue_cycle >= 0 ? head.issue_cycle : head.dispatch_cycle;
      ev.complete = head.completion;
      ev.retire = now;
      result_.timeline.push_back(ev);
    }
    ++retired_;
    --retire_budget;
  }
  if (cand_) log_.retired.push_back(retired_ - cand_->retired);
}

// Examines one unissued entry of the scheduler window; returns whether it
// issued.
bool Engine::try_issue(std::uint64_t id, double now) {
  Slot& e = slot(id);
  const StaticInstr& s = prep_.statics[static_cast<std::size_t>(e.static_idx)];
  const ProducerRef* addr = producers(id);
  const ProducerRef* data = addr + e.n_addr;
  const ProducerRef* acc = data + e.n_data;
  // Eliminated at rename: completes as soon as producers complete.
  if (s.zero_idiom || s.eliminated_move) {
    double ready = e.dispatch_cycle;
    for (int i = 0; i < e.n_data; ++i) {
      const double t = time_of(data[i]);
      if (t >= kInf) return false;
      ready = std::max(ready, t);
    }
    if (ready > now) return false;
    e.issued = true;
    e.issue_cycle = now;
    e.completion = std::max(ready, e.dispatch_cycle);
    return true;
  }
  // Address inputs always gate issue.
  for (int i = 0; i < e.n_addr; ++i) {
    if (time_of(addr[i]) > now) return false;
  }
  // Data inputs gate issue, except for stores (the store-address
  // micro-op proceeds without the data) and folded load+compute
  // instructions (the load micro-op issues ahead; the compute waits for
  // both the loaded value and the register inputs).  LLVM-MCA style
  // models gate the whole instruction on all operands instead.
  const bool pure_store = cfg_.store_address_split && s.is_store && !s.is_load;
  const bool early_issue = pure_store || (s.split_load && cfg_.split_folded_loads);
  double data_ready_time = 0.0;
  if (early_issue) {
    for (int i = 0; i < e.n_data; ++i) {
      const double t = time_of(data[i]);
      // Folded compute needs a known data time.
      if (t >= kInf && !pure_store) return false;
      data_ready_time = std::max(data_ready_time, t);
    }
  } else {
    for (int i = 0; i < e.n_data; ++i) {
      if (time_of(data[i]) > now) return false;
    }
  }
  // Accumulator inputs with late forwarding: their producers must have
  // issued (known completion), but the value may arrive after issue.
  double acc_ready = 0.0;
  for (int i = 0; i < e.n_acc; ++i) {
    const double t = time_of(acc[i]);
    if (t >= kInf) return false;
    acc_ready = std::max(acc_ready, t);
  }
  // Form-level serialization (non-pipelined units, gathers).  The unit
  // becomes available mid-cycle; an issue in the cycle during which it
  // frees preserves fractional reciprocals exactly.
  if (s.unit >= 0 && unit_next_[static_cast<std::size_t>(s.unit)] >= now + 1.0)
    return false;
  // Port availability, with a tentative reservation within this cycle so
  // two uops of the same instruction do not pick the same port.
  const int* bound = cfg_.dynamic_port_selection ? nullptr : bound_ports(id);
  uarch::PortMask taken = 0;
  for (std::size_t u = 0; u < s.uops.size(); ++u) {
    int best = -1;
    const int static_port = bound ? bound[u] : -1;
    if (static_port >= 0) {
      if (port_free_[static_cast<std::size_t>(static_port)] < now + 1.0 &&
          !(taken >> static_port & 1u))
        best = static_port;
    } else {
      double best_free = kInf;
      for (uarch::PortMask mask = s.uops[u].mask & ~taken; mask; mask &= mask - 1) {
        const int p = std::countr_zero(mask);
        // Prefer the port that has been idle longest (load spreading).
        const double free_at = port_free_[static_cast<std::size_t>(p)];
        if (free_at < now + 1.0 && free_at < best_free) {
          best_free = free_at;
          best = p;
        }
      }
    }
    if (best < 0) return false;
    chosen_[u] = best;
    taken |= uarch::PortMask{1} << best;
  }
  // Commit the issue.
  for (std::size_t u = 0; u < s.uops.size(); ++u) {
    const auto p = static_cast<std::size_t>(chosen_[u]);
    const double occ = s.uops[u].occupancy;
    // Accumulate from the later of "now" and the current reservation so
    // fractional occupancies serialize exactly.
    port_free_[p] = std::max(port_free_[p], now) + occ;
    if (measure_start_ >= 0.0) port_busy_measured_[p] += occ;
    if (cand_) log_.adds.emplace_back(chosen_[u], occ);
  }
  if (s.unit >= 0) {
    double& next = unit_next_[static_cast<std::size_t>(s.unit)];
    next = std::max(next, now) + s.inv_tput;
  }
  e.issued = true;
  e.issue_cycle = now;
  if (s.split_load && cfg_.split_folded_loads && !pure_store) {
    // Folded load + compute: the load issues now; the compute starts
    // when both the loaded value and the register inputs are there.
    e.completion = std::max(now + s.load_lat, data_ready_time) +
                   std::max(1.0, s.chain_lat);
  } else {
    e.completion = now + std::max(1.0, s.latency);
  }
  if (e.n_acc > 0) e.completion = std::max(e.completion, acc_ready + s.acc_lat);
  if (pure_store) {
    // Completion (visible to forwarding consumers and retirement) also
    // waits for the store data; resolved later once known.
    if (data_ready_time >= kInf) {
      e.completion = kInf;  // data producer not yet issued
      pending_stores_.insert(std::upper_bound(pending_stores_.begin(),
                                              pending_stores_.end(), id),
                             id);
    } else {
      e.completion = std::max(e.completion, data_ready_time + 1.0);
    }
  }
  if (s.wb_reg != kNoReg) e.wb_time = now + 1.0;
  return true;
}

// Oldest-first among ready entries, within the scheduler window: the first
// scheduler_size unissued entries in age order.
void Engine::issue(double now) {
  const std::size_t window = std::min(
      unissued_.size(), static_cast<std::size_t>(std::max(0, res_.scheduler_size)));
  if (window > 0) examined_max_ = std::max(examined_max_, unissued_[window - 1]);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < window; ++i) {
    const std::uint64_t id = unissued_[i];
    if (!try_issue(id, now)) unissued_[kept++] = id;
  }
  unissued_.erase(unissued_.begin() + static_cast<std::ptrdiff_t>(kept),
                  unissued_.begin() + static_cast<std::ptrdiff_t>(window));
}

// Resolve store completions whose data producers have issued since.
void Engine::resolve_stores(double now) {
  std::size_t kept = 0;
  for (const std::uint64_t id : pending_stores_) {
    Slot& e = slot(id);
    const ProducerRef* data = producers(id) + e.n_addr;
    double data_ready = 0.0;
    bool known = true;
    for (int i = 0; i < e.n_data; ++i) {
      const double t = time_of(data[i]);
      if (t >= kInf) known = false;
      data_ready = std::max(data_ready, t);
    }
    if (known) {
      e.completion = std::max(now + 1.0, data_ready + 1.0);
    } else {
      pending_stores_[kept++] = id;
    }
  }
  pending_stores_.resize(kept);
}

// Rename / dispatch.
void Engine::dispatch(double now) {
  double rename_budget = cfg_.dispatch_width_override > 0
                             ? cfg_.dispatch_width_override
                             : res_.rename_width;
  fetch_more(static_cast<std::size_t>(res_.decode_width) * 4);
  bool stalled = false;
  while (rename_budget > 0.0 && pending_ < total_) {
    if (fetch_q_.empty()) fetch_more(1);
    if (fetch_q_.empty()) break;
    if (fetch_q_.front() > now) {
      last_fetch_block_ = static_cast<std::int64_t>(cycle_);
      break;
    }
    const int idx = static_cast<int>(pending_ % static_cast<std::uint64_t>(n_));
    const StaticInstr& s = prep_.statics[static_cast<std::size_t>(idx)];
    if (inflight_uops_ + s.uop_count > res_.rob_size ||
        (s.is_load && inflight_loads_ >= res_.load_queue) ||
        (s.is_store && inflight_stores_ >= res_.store_queue)) {
      stalled = true;
      last_stall_ = static_cast<std::int64_t>(cycle_);
      break;
    }
    if (cand_) {
      headroom_uops_ =
          std::min(headroom_uops_, res_.rob_size - (inflight_uops_ + s.uop_count));
      if (s.is_load)
        headroom_loads_ =
            std::min(headroom_loads_, res_.load_queue - 1 - inflight_loads_);
      if (s.is_store)
        headroom_stores_ =
            std::min(headroom_stores_, res_.store_queue - 1 - inflight_stores_);
    }
    const std::uint64_t id = pending_;
    Slot& e = slot(id);
    e = Slot{};
    e.static_idx = idx;
    e.dispatch_cycle = now;
    if (!cfg_.dynamic_port_selection) {
      // LLVM-MCA style: bind each uop to the least-used port now.
      int* bound = bound_ports(id);
      for (std::size_t u = 0; u < s.uops.size(); ++u) {
        int best = -1;
        double best_use = kInf;
        for (uarch::PortMask mask = s.uops[u].mask; mask; mask &= mask - 1) {
          const int p = std::countr_zero(mask);
          if (static_use_[static_cast<std::size_t>(p)] < best_use) {
            best_use = static_use_[static_cast<std::size_t>(p)];
            best = p;
          }
        }
        bound[u] = best;
        if (best < 0) continue;
        if (cand_) {
          // Every other port of the mask was behind the chosen one (by a
          // positive margin if it comes first, else a non-negative one).
          for (uarch::PortMask mask = s.uops[u].mask; mask; mask &= mask - 1) {
            const int p = std::countr_zero(mask);
            double& m = binding_margin_[static_cast<std::size_t>(
                (p * port_count_ + best) * 2 + (p < best))];
            m = std::min(m, static_use_[static_cast<std::size_t>(p)] - best_use);
          }
        }
        static_use_[static_cast<std::size_t>(best)] += s.uops[u].occupancy;
      }
    }
    if (!s.zero_idiom) {
      ProducerRef* out = producers(id);
      auto link = [&out](const ProducerRef& p) {
        if (p.id == kNoId) return false;
        *out++ = p;
        return true;
      };
      for (int r : s.addr_regs)
        e.n_addr += link(last_writer_[static_cast<std::size_t>(r)]);
      for (int r : s.data_regs)
        e.n_data += link(last_writer_[static_cast<std::size_t>(r)]);
      if (s.is_load && s.mem >= 0) {
        const StoreRec& st = last_store_[static_cast<std::size_t>(s.mem)];
        const MemLoc& loc = prep_.mems[static_cast<std::size_t>(s.mem)];
        if (st.base_ver == version(loc.base_reg) &&
            st.index_ver == version(loc.index_reg))
          e.n_data += link(ProducerRef{st.id, false});
      }
      if (s.acc_lat > 0 && s.acc_reg != kNoReg)
        e.n_acc += link(last_writer_[static_cast<std::size_t>(s.acc_reg)]);
    }
    if (s.is_store && s.mem >= 0) {
      const MemLoc& loc = prep_.mems[static_cast<std::size_t>(s.mem)];
      last_store_[static_cast<std::size_t>(s.mem)] =
          StoreRec{id, version(loc.base_reg), version(loc.index_reg)};
    }
    for (int r : s.write_regs) {
      last_writer_[static_cast<std::size_t>(r)] = ProducerRef{id, false};
      ++reg_version_[static_cast<std::size_t>(r)];
    }
    if (s.wb_reg != kNoReg) {
      last_writer_[static_cast<std::size_t>(s.wb_reg)] = ProducerRef{id, true};
      ++reg_version_[static_cast<std::size_t>(s.wb_reg)];
    }

    inflight_uops_ += s.uop_count;
    if (s.is_load) ++inflight_loads_;
    if (s.is_store) ++inflight_stores_;
    unissued_.push_back(id);
    rename_budget -= s.uop_count;
    ++pending_;
    fetch_q_.pop_front();
  }
  if (stalled && measure_start_ >= 0.0) ++result_.backpressure_cycles;
  if (cand_) {
    log_.stalled.push_back(static_cast<char>(stalled));
    log_.adds_end.push_back(log_.adds.size());
  }
}

// ---- Periodic jump ---------------------------------------------------------
//
// The simulation is deterministic, and with exact times (Prepared::
// exact_times) shifting every time by whole cycles and every id by whole
// iterations commutes with it.  So once the state at a snapshot equals the
// state one period of C cycles later -- compared in a normalized form that
// keeps exactly what the future depends on -- every later period repeats the
// first until the end of the instruction stream comes into view.  The back
// end (retire, issue, ports) advances D ids per period, the front end
// (fetch, rename) Df >= D: when the front end runs ahead, the ROB grows by
// Df - D entries per period, which it can do only while it has room.  The
// jump replays the recorded period's measurements for the skipped periods
// and shifts the state; the last periods and the drain are simulated.

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 29);
}

// The normalized state at the start of the current cycle.  Times are taken
// relative to now, ids relative to the ROB head (back end) or to the next
// id to rename (front end).  Left out, because the future does not depend
// on them: a time already past (when may_grow_; nothing reads its value
// then), an idle port's exact free time (only the order among idle ports
// matters), a free unit's time, dead store records, the fetch clock's
// distance from now and the static-binding counters (certified_periods()
// checks both separately).
void Engine::serialize(double now, Snapshot& out) const {
  constexpr std::uint64_t kUnknown = ~std::uint64_t{0};
  constexpr std::uint64_t kPast = kUnknown - 1;
  auto rel = [this, now](double t) {
    if (t >= kInf) return kUnknown;
    if (t <= now && may_grow_) return kPast;
    return std::bit_cast<std::uint64_t>(t - now);
  };
  std::vector<std::uint64_t>& f = out.front;
  f.clear();
  f.push_back(pending_ % static_cast<std::uint64_t>(n_));
  f.push_back(next_fetch_id_ - pending_);
  f.push_back(static_cast<std::uint64_t>(fetch_slots_));
  for (double t : fetch_q_) f.push_back(std::bit_cast<std::uint64_t>(t - fetch_cycle_));
  for (const ProducerRef& w : last_writer_) {
    f.push_back(w.id != kNoId);
    if (w.id != kNoId) f.push_back((pending_ - w.id) << 1 | static_cast<std::uint64_t>(w.wb));
  }
  for (std::size_t m = 0; m < last_store_.size(); ++m) {
    const StoreRec& st = last_store_[m];
    const bool live = st.id != kNoId &&
                      st.base_ver == version(prep_.mems[m].base_reg) &&
                      st.index_ver == version(prep_.mems[m].index_reg);
    f.push_back(live ? pending_ - st.id : kUnknown);
  }

  std::vector<std::uint64_t>& b = out.back;
  b.clear();
  b.push_back(retired_ % static_cast<std::uint64_t>(n_));
  // Ports free before now compare only among themselves: keep their rank.
  std::vector<double> idle;
  for (double t : port_free_)
    if (t < now) idle.push_back(t);
  std::sort(idle.begin(), idle.end());
  for (double t : port_free_) {
    b.push_back(t < now);
    b.push_back(t < now ? static_cast<std::uint64_t>(
                              std::lower_bound(idle.begin(), idle.end(), t) -
                              idle.begin())
                        : rel(t));
  }
  for (double t : unit_next_) b.push_back(t > now ? rel(t) : kUnknown);
  out.globals = b.size();
  out.entry_end.clear();
  for (std::uint64_t id = retired_; id < pending_; ++id) {
    const Slot& e = slot(id);
    b.push_back(static_cast<std::uint64_t>(e.issued));
    b.push_back(rel(e.completion));
    b.push_back(rel(e.wb_time));
    if (!(e.issued && e.completion < kInf)) {  // still reads its producers
      if (!may_grow_) b.push_back(rel(e.dispatch_cycle));
      const ProducerRef* p = producers(id);
      for (int i = 0; i < e.n_addr + e.n_data + e.n_acc; ++i) {
        b.push_back((p[i].id - retired_) << 1 | static_cast<std::uint64_t>(p[i].wb));
        if (p[i].id < retired_) b.push_back(may_grow_ ? kPast : rel(time_of(p[i])));
      }
      if (!e.issued && !cfg_.dynamic_port_selection) {
        const int* bound = bound_ports(id);
        const auto& uops = prep_.statics[static_cast<std::size_t>(e.static_idx)].uops;
        for (std::size_t u = 0; u < uops.size(); ++u)
          b.push_back(static_cast<std::uint64_t>(bound[u]));
      }
    }
    out.entry_end.push_back(b.size());
  }
}

// Whether dynamic instructions `a` and `b` were renamed alike: the same
// producers at the same distances and the same bound ports.
bool Engine::same_creation(std::uint64_t a, std::uint64_t b) const {
  const Slot& x = slot(a);
  const Slot& y = slot(b);
  if (x.static_idx != y.static_idx || x.n_addr != y.n_addr ||
      x.n_data != y.n_data || x.n_acc != y.n_acc)
    return false;
  const ProducerRef* p = producers(a);
  const ProducerRef* q = producers(b);
  for (int i = 0; i < x.n_addr + x.n_data + x.n_acc; ++i)
    if (a - p[i].id != b - q[i].id || p[i].wb != q[i].wb) return false;
  if (cfg_.dynamic_port_selection) return true;
  const std::size_t uops = prep_.statics[static_cast<std::size_t>(x.static_idx)].uops.size();
  return std::equal(bound_ports(a), bound_ports(a) + uops, bound_ports(b));
}

// The number of whole periods the state certifies for skipping from the
// current snapshot, one period after the candidate's; 0 if none.
//  * The front end's state and the back end's ports and units are the
//    candidate's.
//  * The fetch clock cannot change a decision: it keeps its distance from
//    now, or it falls behind and never held up dispatch in the period (so
//    it holds up nothing later, when it is further behind).
//  * Either the whole state is the candidate's (the ROB neither grows nor
//    shrinks), or the ROB grows: then every entry the scheduler examined in
//    the period was already in the ROB at the candidate snapshot and is the
//    candidate's, the entries behind them were renamed in a pattern that
//    repeats every D ids, and dispatch never stalled.  Growth is allowed
//    for as many periods as the tightest ROB / LQ / SQ headroom lasts.
std::uint64_t Engine::certified_periods() const {
  const Candidate& c = *cand_;
  const std::uint64_t d = c.period_ids;
  if (retired_ != c.retired + d || pending_ < c.pending + d) return 0;
  const Snapshot& a = c.state;
  const Snapshot& b = state_;
  if (a.front != b.front || a.globals != b.globals ||
      !std::equal(a.back.begin(), a.back.begin() + static_cast<std::ptrdiff_t>(a.globals),
                  b.back.begin()))
    return 0;
  const double advance = fetch_cycle_ - c.fetch_cycle;
  const auto cycles = static_cast<double>(c.period_cycles);
  if (!(advance == cycles ||
        (advance < cycles &&
         last_fetch_block_ < static_cast<std::int64_t>(c.cycle))))
    return 0;
  const std::uint64_t front_ids = pending_ - c.pending;
  std::uint64_t periods =
      std::min((total_ - next_fetch_id_) / front_ids,
               (kMaxCycles - 1 - cycle_) / c.period_cycles);
  if (front_ids == d && a.back == b.back && inflight_uops_ == c.inflight_uops &&
      inflight_loads_ == c.inflight_loads && inflight_stores_ == c.inflight_stores)
    return std::min(periods, binding_periods());
  if (!may_grow_ || last_stall_ >= static_cast<std::int64_t>(c.cycle) ||
      examined_max_ >= c.pending || pending_ - retired_ < d + front_ids)
    return 0;
  const std::size_t seen = examined_max_ < c.retired
                               ? a.globals
                               : a.entry_end[examined_max_ - c.retired];
  if (b.back.size() < seen ||
      !std::equal(a.back.begin(), a.back.begin() + static_cast<std::ptrdiff_t>(seen),
                  b.back.begin()))
    return 0;
  for (std::uint64_t id = retired_ + d; id < pending_; ++id)
    if (!same_creation(id, id - d)) return 0;
  auto limit = [&periods](double headroom, double growth) {
    if (growth > 0.0)
      periods = std::min(periods, static_cast<std::uint64_t>(headroom / growth));
  };
  limit(headroom_uops_, inflight_uops_ - c.inflight_uops);
  limit(headroom_loads_, inflight_loads_ - c.inflight_loads);
  limit(headroom_stores_, inflight_stores_ - c.inflight_stores);
  return std::min(periods, binding_periods());
}

// Static port binding (LLVM-MCA style) picks the least-used port of a mask
// by cumulative counters that may grow at different rates per port.  Each
// binding of the candidate period is repeated in the skipped periods while
// the chosen port stays ahead of every other port of its mask; a margin
// that shrinks by a fixed amount per period bounds the periods.
std::uint64_t Engine::binding_periods() const {
  const Candidate& c = *cand_;
  std::uint64_t periods = ~std::uint64_t{0};
  const auto ports = static_cast<std::size_t>(port_count_);
  for (std::size_t i = 0; i < binding_margin_.size(); ++i) {
    const double margin = binding_margin_[i];
    if (margin >= kInf) continue;
    const bool strict = i % 2 != 0;
    const std::size_t other = i / 2 / ports;
    const std::size_t chosen = i / 2 % ports;
    const double shrink = (static_use_[chosen] - c.static_use[chosen]) -
                          (static_use_[other] - c.static_use[other]);
    if (shrink <= 0.0) continue;
    // The largest q with margin - q * shrink > 0 (strict) or >= 0.
    auto q = static_cast<std::uint64_t>(std::floor(margin / shrink));
    while (q > 0 && (strict ? margin - static_cast<double>(q) * shrink <= 0.0
                            : margin - static_cast<double>(q) * shrink < 0.0))
      --q;
    periods = std::min(periods, q);
  }
  return periods;
}

void Engine::at_snapshot() {
  const auto n = static_cast<std::uint64_t>(n_);
  next_snapshot_ = (retired_ / n + 1) * n;
  if (next_fetch_id_ >= total_) {  // nothing left to skip
    disarm();
    return;
  }
  serialize(static_cast<double>(cycle_), state_);
  // The candidate search keys on the front end, the ports and units, and
  // the ROB up to the end of the scheduler window.
  const auto window = static_cast<std::size_t>(std::max(0, res_.scheduler_size));
  const std::size_t hashed =
      window > 0 && unissued_.size() >= window
          ? state_.entry_end[unissued_[window - 1] - retired_]
          : state_.back.size();
  std::uint64_t h = 0;
  for (std::uint64_t v : state_.front) h = mix(h, v);
  for (std::size_t i = 0; i < hashed; ++i) h = mix(h, state_.back[i]);
  if (cand_ && cycle_ >= cand_->cycle + cand_->period_cycles) {
    const std::uint64_t periods =
        cycle_ == cand_->cycle + cand_->period_cycles ? certified_periods() : 0;
    if (periods > 0) jump(periods);
    cand_.reset();
    log_.clear();
    if (periods > 0) {
      seen_.clear();
      next_snapshot_ = (retired_ / n + 1) * n;
      return;
    }
  }
  if (!cand_) {
    for (auto it = seen_.rbegin(); it != seen_.rend(); ++it) {
      if (it->hash != h || it->retired == retired_ ||
          (retired_ - it->retired) % n != 0)
        continue;
      Candidate c;
      c.cycle = cycle_;
      c.retired = retired_;
      c.pending = pending_;
      c.period_cycles = cycle_ - it->cycle;
      c.period_ids = retired_ - it->retired;
      c.state = state_;
      c.fetch_cycle = fetch_cycle_;
      c.static_use = static_use_;
      c.inflight_uops = inflight_uops_;
      c.inflight_loads = inflight_loads_;
      c.inflight_stores = inflight_stores_;
      cand_ = std::move(c);
      headroom_uops_ = kInf;
      headroom_loads_ = res_.load_queue;
      headroom_stores_ = res_.store_queue;
      binding_margin_.assign(cfg_.dynamic_port_selection
                                 ? 0
                                 : static_cast<std::size_t>(port_count_ * port_count_ * 2),
                             kInf);
      break;
    }
  }
  seen_.push_back(Seen{h, cycle_, retired_});
}

void Engine::disarm() {
  armed_ = false;
  cand_.reset();
  log_.clear();
  seen_.clear();
}

// Skips `periods` periods of the candidate that certified_periods() just
// accepted (cand_ still holds it).
void Engine::jump(std::uint64_t periods) {
  const Candidate& c = *cand_;
  const std::uint64_t front_ids = pending_ - c.pending;
  const std::uint64_t d_ids = periods * c.period_ids;
  const std::uint64_t d_front = periods * front_ids;
  const std::uint64_t d_cycles = periods * c.period_cycles;
  const auto dt = static_cast<double>(d_cycles);

  // The skipped periods' measurements, in the order the simulation would
  // have made them.
  for (std::uint64_t q = 0; q < periods; ++q) {
    const std::uint64_t cycle0 = cycle_ + q * c.period_cycles;
    const std::uint64_t id0 = retired_ + q * c.period_ids;
    std::uint64_t lo = id0;
    std::size_t add = 0;
    for (std::size_t o = 0; o < log_.stalled.size(); ++o) {
      const std::uint64_t hi = id0 + log_.retired[o];
      const double now = static_cast<double>(cycle0 + o);
      if (measure_start_ < 0.0 && lo <= measure_from_ && measure_from_ < hi)
        measure_start_ = now;
      if (measure_end_marker_ < 0.0 && lo <= measure_to_ && measure_to_ < hi)
        measure_end_marker_ = now;
      if (measure_start_ >= 0.0) {
        for (std::size_t a = add; a < log_.adds_end[o]; ++a)
          port_busy_measured_[static_cast<std::size_t>(log_.adds[a].first)] +=
              log_.adds[a].second;
        if (log_.stalled[o]) ++result_.backpressure_cycles;
      }
      add = log_.adds_end[o];
      lo = hi;
    }
  }

  // Shift the back end by D ids per period: the ring moves every id still
  // readable.  Entries the front end renamed ahead are appended, each
  // renamed like the entry D ids before it.
  const std::uint64_t oldest =
      retired_ >= static_cast<std::uint64_t>(n_) ? retired_ - static_cast<std::uint64_t>(n_) : 0;
  std::vector<Slot> ring(ring_.size());
  std::vector<ProducerRef> prod(prod_.size());
  std::vector<int> ports(ports_.size(), -1);
  const std::size_t np = prep_.max_producers;
  const std::size_t nu = ports_.empty() ? 0 : prep_.max_uops;
  auto shift_time = [dt](double& t) {
    if (t < kInf && t >= 0.0) t += dt;
  };
  auto copy = [&](std::uint64_t to, const std::vector<Slot>& from_ring,
                  const std::vector<ProducerRef>& from_prod,
                  const std::vector<int>& from_ports, std::uint64_t from,
                  std::uint64_t shift) {
    const std::uint64_t f = from & ring_mask_;
    const std::uint64_t t = to & ring_mask_;
    ring[t] = from_ring[f];
    for (std::size_t i = 0; i < np; ++i) {
      ProducerRef p = from_prod[f * np + i];
      if (p.id != kNoId) p.id += shift;
      prod[t * np + i] = p;
    }
    for (std::size_t u = 0; u < nu; ++u) ports[t * nu + u] = from_ports[f * nu + u];
  };
  for (std::uint64_t id = oldest; id < pending_; ++id) {
    copy(id + d_ids, ring_, prod_, ports_, id, d_ids);
    Slot& s = ring[(id + d_ids) & ring_mask_];
    shift_time(s.completion);
    shift_time(s.wb_time);
    shift_time(s.dispatch_cycle);
    shift_time(s.issue_cycle);
  }
  for (std::uint64_t& id : unissued_) id += d_ids;
  for (std::uint64_t& id : pending_stores_) id += d_ids;
  for (std::uint64_t id = pending_ + d_ids; id < pending_ + d_front; ++id) {
    copy(id, ring, prod, ports, id - c.period_ids, c.period_ids);
    Slot& s = ring[id & ring_mask_];
    s.issued = false;
    s.completion = s.wb_time = kInf;
    s.issue_cycle = -1.0;
    unissued_.push_back(id);
  }
  ring_ = std::move(ring);
  prod_ = std::move(prod);
  ports_ = std::move(ports);
  examined_max_ += d_ids;

  // Shift the front end by Df ids per period.
  for (ProducerRef& w : last_writer_)
    if (w.id != kNoId) w.id += d_front;
  const std::uint64_t iters = d_front / static_cast<std::uint64_t>(n_);
  std::vector<char> live(last_store_.size());
  for (std::size_t m = 0; m < last_store_.size(); ++m) {
    const StoreRec& st = last_store_[m];
    live[m] = st.id != kNoId && st.base_ver == version(prep_.mems[m].base_reg) &&
              st.index_ver == version(prep_.mems[m].index_reg);
  }
  for (std::size_t r = 0; r < reg_version_.size(); ++r)
    reg_version_[r] += iters * prep_.writes_per_iter[r];
  for (std::size_t m = 0; m < last_store_.size(); ++m) {
    StoreRec& st = last_store_[m];
    st = live[m] ? StoreRec{st.id + d_front, version(prep_.mems[m].base_reg),
                            version(prep_.mems[m].index_reg)}
                 : StoreRec{};
  }
  const auto k = static_cast<double>(periods);
  for (std::size_t p = 0; p < static_use_.size(); ++p)
    static_use_[p] += k * (static_use_[p] - c.static_use[p]);
  const double fetch_shift = k * (fetch_cycle_ - c.fetch_cycle);
  fetch_cycle_ += fetch_shift;
  for (double& t : fetch_q_) t += fetch_shift;
  inflight_uops_ += k * (inflight_uops_ - c.inflight_uops);
  inflight_loads_ += static_cast<int>(periods) * (inflight_loads_ - c.inflight_loads);
  inflight_stores_ += static_cast<int>(periods) * (inflight_stores_ - c.inflight_stores);

  for (double& t : port_free_) t += dt;
  for (double& t : unit_next_) t += dt;
  retired_ += d_ids;
  pending_ += d_front;
  next_fetch_id_ += d_front;
  cycle_ += d_cycles;
}

void Engine::run(bool periodic_jump) {
  // The recorded timeline iterations are always simulated.
  armed_ = periodic_jump && prep_.exact_times;
  next_snapshot_ = static_cast<std::uint64_t>(std::max(1, cfg_.timeline_iterations)) *
                   static_cast<std::uint64_t>(n_);
  for (; cycle_ < kMaxCycles && retired_ < total_; ++cycle_) {
    if (armed_ && (retired_ >= next_snapshot_ ||
                   (cand_ && cycle_ == cand_->cycle + cand_->period_cycles)))
      at_snapshot();
    ++result_.simulated_cycles;
    const double now = static_cast<double>(cycle_);
    retire(now);
    if (retired_ >= total_) break;
    issue(now);
    resolve_stores(now);
    dispatch(now);
  }

  const int measured_iters = std::max(1, cfg_.iterations - 1);
  const double measure_end = measure_end_marker_ >= 0.0
                                 ? measure_end_marker_
                                 : static_cast<double>(cycle_);
  result_.total_cycles = cycle_;
  result_.measured_iterations = measured_iters;
  if (measure_start_ < 0.0) measure_start_ = 0.0;
  result_.cycles_per_iteration = (measure_end - measure_start_) / measured_iters;
  const auto ports = static_cast<std::size_t>(port_count_);
  result_.port_utilization.assign(ports, 0.0);
  result_.port_cycles.assign(ports, 0.0);
  const double window_cycles = std::max(1.0, measure_end - measure_start_);
  for (std::size_t p = 0; p < ports; ++p) {
    result_.port_utilization[p] = port_busy_measured_[p] / window_cycles;
    result_.port_cycles[p] = port_busy_measured_[p] / measured_iters;
  }
}

}  // namespace

namespace detail {

PipelineResult simulate_loop(const Program& prog, const uarch::MachineModel& mm,
                             const PipelineConfig& cfg, bool periodic_jump) {
  PipelineResult result;
  if (prog.code.empty()) return result;
  Engine engine(prog, mm, cfg, result);
  engine.run(periodic_jump);
  return result;
}

}  // namespace detail

PipelineResult simulate_loop(const Program& prog,
                             const uarch::MachineModel& mm,
                             const PipelineConfig& cfg) {
  return detail::simulate_loop(prog, mm, cfg, true);
}

std::string render_timeline(const std::vector<TimelineEvent>& events,
                            const asmir::Program& prog) {
  if (events.empty()) return "";
  double max_t = 0;
  for (const auto& e : events) max_t = std::max(max_t, e.retire);
  const int width = std::min(100, static_cast<int>(max_t) + 1);

  std::string out = "Timeline (D dispatch, E execute, R retire):\n";
  // Column ruler every 10 cycles.
  out += "                ";
  for (int t = 0; t < width; ++t)
    out += (t % 10 == 0) ? ('0' + (t / 10) % 10) : ' ';
  out += '\n';
  for (const auto& e : events) {
    char row[128];
    std::snprintf(row, sizeof(row), "[%d,%2d]         ", e.iteration,
                  e.index);
    std::string line(row);
    line.resize(16, ' ');
    std::string lane(static_cast<std::size_t>(width), ' ');
    auto clampi = [&](double v) {
      return std::min(width - 1, std::max(0, static_cast<int>(v)));
    };
    int d = clampi(e.dispatch);
    int i = clampi(e.issue);
    int c = clampi(e.complete);
    int r = clampi(e.retire);
    for (int t = d; t <= r; ++t) lane[static_cast<std::size_t>(t)] = '.';
    lane[static_cast<std::size_t>(d)] = 'D';
    for (int t = i; t < c && t < width; ++t)
      if (lane[static_cast<std::size_t>(t)] == '.')
        lane[static_cast<std::size_t>(t)] = 'e';
    if (i <= c) lane[static_cast<std::size_t>(i)] = 'E';
    lane[static_cast<std::size_t>(r)] = 'R';
    line += lane;
    const auto idx = static_cast<std::size_t>(e.index);
    if (idx < prog.code.size()) {
      line += "  ";
      line += prog.code[idx].raw;
    }
    out += line + '\n';
  }
  return out;
}

}  // namespace incore::exec

#pragma once
// Microarchitecture (port) models.
//
// A MachineModel is the paper's "in-core model": the set of issue ports, the
// out-of-order resource sizes, and a database mapping instruction *forms*
// (mnemonic + operand signature, e.g. "vfmadd231pd v512,v512,v512") to their
// performance descriptor: port occupation in cycles, reciprocal throughput
// and latency.  Port occupation follows the OSACA convention: each PortUse
// names a set of alternative ports and the number of cycles of occupancy the
// instruction contributes to (a balanced assignment over) that set.
// Non-pipelined units (dividers) are expressed as multi-cycle occupancy.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asmir/ir.hpp"

namespace incore::uarch {

/// The paper-trio *family tag*.  This is no longer how the stack names
/// machines (that is the MachineRegistry / MachineRef layer in
/// registry.hpp); it survives as the key into trio-specific tables that
/// live outside the MachineModel: ECM hierarchy parameters, chip power
/// coefficients, testbed silicon configs and compiler-personality codegen.
/// Every model — built-in, what-if clone or .mdf-loaded — carries one
/// (`MachineModel::micro()`, the `family` header of the file format), so
/// user models fall back to the tables of the trio member they derive from.
enum class Micro : std::uint8_t { NeoverseV2, GoldenCove, Zen4 };

[[nodiscard]] const char* to_string(Micro m);
/// Marketing name of the CPU built around the microarchitecture, as used in
/// the paper ("GCS", "SPR", "Genoa").
[[nodiscard]] const char* cpu_short_name(Micro m);

/// Bitmask over a machine's ports (max 32 ports; the largest model, Neoverse
/// V2, has 17).
using PortMask = std::uint32_t;

struct PortUse {
  PortMask mask = 0;   // alternative ports
  double cycles = 1.0; // occupancy contributed to the set
};

/// Policy for `MachineModel::add` when the form key is already registered.
/// The historical behaviour (silently keeping the first registration) hid
/// typos in hand-written models; the default now rejects re-registration.
enum class OnDuplicate : std::uint8_t {
  Reject,     // throw support::ModelError (default)
  Warn,       // keep the first entry, record the key in duplicate_forms()
  Overwrite,  // last write wins (what-if model editing)
};

struct InstrPerf {
  /// Reciprocal (inverse) throughput in cycles per instruction, steady state.
  double inverse_throughput = 1.0;
  /// Result latency in cycles (worst source -> destination).
  double latency = 1.0;
  std::vector<PortUse> port_uses;
  /// Number of micro-ops for front-end/ROB accounting (defaults to the
  /// number of port uses).
  double uops = 0.0;
  /// Late accumulator forwarding: effective latency of the destination-
  /// accumulator input of FMA-class instructions (0 = no late forwarding).
  /// Neoverse V2 forwards fused accumulates in 2 cycles.
  double accumulator_latency = 0.0;

  [[nodiscard]] double total_uops() const;
};

/// Outcome of resolving one IR instruction against the model, after folded
/// loads/stores are decomposed into synthetic "_load.mN" / "_store.mN" ops.
struct Resolved {
  double accumulator_latency = 0.0;  // see InstrPerf::accumulator_latency
  std::vector<PortUse> port_uses;   // combined occupancy
  double inverse_throughput = 1.0;  // max over components
  double latency = 1.0;             // total source->dest latency
  double load_latency = 0.0;        // portion contributed by an L1 load
  /// Latency of the value-producing (compute) component alone: for a folded
  /// load+compute instruction this excludes the load, because an OoO core
  /// issues the load micro-op ahead of the recurrence -- register chains
  /// through the destination see only this part.
  double chain_latency = 1.0;
  double uops = 1.0;
  bool has_load = false;
  bool has_store = false;
  bool is_gather = false;
  /// The form missed the table and resolved through the bare-mnemonic
  /// fallback entry: latency/throughput are a guess at mnemonic granularity.
  bool used_fallback = false;
  /// The form resolved via folded-access decomposition into synthetic
  /// "_load.mN"/"_store.mN" micro-ops plus the register-equivalent compute
  /// form (the normal path for folded memory operands).
  bool decomposed = false;
};

/// Per-core cache-hierarchy geometry (the MDF `cache` directive).  Shared
/// by the trace simulator (memsim::CacheHierarchy::for_model) and the
/// static traffic engine (src/traffic/), so what-if edits to an .mdf file
/// flow into both sides of the traffic cross-validation.  `l3_bytes` is the
/// per-core L3 share, as in the paper's Table I.
struct CacheParams {
  long long l1_bytes = 32 * 1024;
  int l1_ways = 8;
  long long l2_bytes = 1024 * 1024;
  int l2_ways = 8;
  long long l3_bytes = 2 * 1024 * 1024;
  int l3_ways = 16;
  int line_bytes = 64;
  /// Distinct access streams the hardware prefetchers can track
  /// concurrently (drives the VT007 traffic lint).
  int prefetch_streams = 16;

  bool operator==(const CacheParams&) const = default;
};

/// Memory-hierarchy transfer parameters for the ECM composition (the MDF
/// `hierarchy` directive), in cycles per 64 B cache line per adjacent-level
/// transfer with one core active.  The built-in defaults are the paper-trio
/// values; `cy_per_cl_l3_mem` is derived from base frequency over saturated
/// socket bandwidth (the memsim/power derivation is pinned by a drift test
/// in ecm_test so these literals cannot silently diverge from it).
struct HierarchyParams {
  double cy_per_cl_l1_l2 = 1.0;
  double cy_per_cl_l2_l3 = 2.0;
  double cy_per_cl_l3_mem = 5.0;
  /// Socket-level memory-bandwidth cap in cache lines per cycle, for the
  /// multicore saturation law (the reciprocal of cy_per_cl_l3_mem for the
  /// built-in machines; what-if edits may decouple the two).
  double socket_cl_per_cy = 0.2;
  /// Cores on the socket: the upper end of the N-core prediction axis.
  int socket_cores = 1;
  /// Write-allocate lines are charged on every level unless the machine
  /// evades them (Grace's automatic cache-line claim).
  bool write_allocate_evaded = false;
};

/// Front-end and out-of-order resource description (used by the MCA-style
/// comparator and the execution testbed, not by the static analyzer).
struct CoreResources {
  int decode_width = 4;     // instructions fetched+decoded per cycle
  int rename_width = 6;     // micro-ops renamed/allocated per cycle
  int retire_width = 6;     // micro-ops retired per cycle
  int rob_size = 256;
  int scheduler_size = 96;  // unified reservation-station entries
  int load_queue = 64;
  int store_queue = 48;
};

class MachineModel {
 public:
  MachineModel(std::string name, Micro micro, asmir::Isa isa,
               std::vector<std::string> ports);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Micro micro() const { return micro_; }
  [[nodiscard]] asmir::Isa isa() const { return isa_; }
  [[nodiscard]] const std::vector<std::string>& ports() const { return ports_; }
  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }

  [[nodiscard]] int port_index(std::string_view port_name) const;
  /// Mask from a '|'-separated list, e.g. "V0|V1|V2|V3".
  [[nodiscard]] PortMask mask(std::string_view spec) const;

  CoreResources& resources() { return res_; }
  [[nodiscard]] const CoreResources& resources() const { return res_; }

  int simd_width_bits = 128;
  double l1_load_latency = 4.0;
  /// Cache geometry; defaults to default_cache_params(micro()) at
  /// construction, overridable by the MDF `cache` directive.
  CacheParams cache;
  /// ECM memory-hierarchy parameters; defaults to
  /// default_hierarchy_params(micro()) at construction, overridable by the
  /// MDF `hierarchy` directive (what-if memory systems).
  HierarchyParams hierarchy;
  /// Issue-width caps independent of AGU port counts.
  int loads_per_cycle = 2;
  int stores_per_cycle = 1;

  /// Registers an instruction form.  `ports_spec` is a ';'-separated list of
  /// occupancy terms "CYCLESxPORT|PORT|..." (CYCLES may be fractional and
  /// defaults to 1), e.g. "1xP0|P5" or "16xP0".  Throws ModelError for
  /// unknown ports, and (under the default OnDuplicate::Reject policy) for
  /// re-registration of an existing form key.
  void add(std::string_view form, double inverse_throughput, double latency,
           std::string_view ports_spec, double uops = 0.0);

  /// Re-registration policy for add(); see OnDuplicate.
  void set_on_duplicate(OnDuplicate policy) { on_duplicate_ = policy; }
  /// Form keys whose re-registration was suppressed under OnDuplicate::Warn,
  /// in registration order.  Consumed by the model verifier (diagnostic
  /// VM007).
  [[nodiscard]] const std::vector<std::string>& duplicate_forms() const {
    return duplicate_forms_;
  }

  /// Raw insertion bypassing the ports-spec parser: overwrites or inserts
  /// the descriptor as given, without any consistency checking.  Intended
  /// for what-if model editing and for verifier tests that need to build
  /// deliberately corrupted fixtures.
  void set_perf(std::string_view form, InstrPerf perf);

  /// Sets the late-forwarding accumulator latency of an existing form.
  void set_accumulator_latency(std::string_view form, double latency);

  /// Overwrites or inserts a form (used by what-if model editing).
  void set(std::string_view form, double inverse_throughput, double latency,
           std::string_view ports_spec, double uops = 0.0);

  /// Exact-form lookup; nullptr when absent.
  [[nodiscard]] const InstrPerf* find(const std::string& form) const;

  /// Full resolution incl. folded-access decomposition and mnemonic
  /// fallback.  Throws support::UnknownInstruction when nothing applies.
  [[nodiscard]] Resolved resolve(const asmir::Instruction& ins) const;

  [[nodiscard]] std::size_t table_size() const { return table_.size(); }

  /// All registered form keys (unordered).  For introspection and tests.
  [[nodiscard]] std::vector<std::string> forms() const;

  /// Model introspection used by the Table II bench.
  [[nodiscard]] int count_ports_matching(std::string_view prefix) const;

  /// Validates internal consistency (every referenced port exists; declared
  /// reciprocal throughput is achievable given the port occupancies).
  /// Throws support::ModelError on violations.
  void validate() const;

 private:
  [[nodiscard]] const InstrPerf* find_mnemonic_fallback(
      const std::string& mnemonic) const;

  std::string name_;
  Micro micro_;
  asmir::Isa isa_;
  std::vector<std::string> ports_;
  CoreResources res_;
  std::unordered_map<std::string, InstrPerf> table_;
  OnDuplicate on_duplicate_ = OnDuplicate::Reject;
  std::vector<std::string> duplicate_forms_;
};

/// Documented cache geometry of a paper-trio family (paper Table I), used
/// as the construction-time default for every model of that family.
[[nodiscard]] CacheParams default_cache_params(Micro m);

/// Documented ECM hierarchy parameters of a paper-trio family, used as the
/// construction-time default for every model of that family.
[[nodiscard]] HierarchyParams default_hierarchy_params(Micro m);

/// The built-in model of a paper-trio member.  Models are constructed once
/// (through the MachineRegistry, see registry.hpp) and immutable
/// afterwards.  Throws support::ModelError for out-of-range values.
[[nodiscard]] const MachineModel& machine(Micro m);

/// All paper-trio microarchitectures, in paper order (GCS, SPR, Genoa).
[[nodiscard]] const std::vector<Micro>& all_micros();

/// Parses a user-facing name of a *trio* machine (case-insensitive),
/// consulting the registry's alias table: "gcs"/"grace"/"v2"/"neoverse-v2",
/// "spr"/"goldencove"/"golden-cove"/"sapphire-rapids", "genoa"/"zen4".
/// Returns false (leaving `out` untouched) for anything else — including
/// registered non-trio machines such as "icelake"; callers that should
/// accept those (or .mdf paths) want uarch::resolve_machine instead.
[[nodiscard]] bool micro_from_name(std::string_view name, Micro& out);

/// One-line help text listing the accepted machine names, generated from
/// the registry.
[[nodiscard]] const char* machine_names_help();

/// The previous-generation Intel server core (Sunny Cove), modeled for the
/// paper's generational ADD-latency comparison.  Not a testbed-trio member;
/// registered in the MachineRegistry under the name "icelake".
[[nodiscard]] const MachineModel& ice_lake_sp();

}  // namespace incore::uarch

#pragma once
// Static memory-traffic analysis.
//
// Consumes the dataflow engine's symbolic memory summary (base/index roots,
// epochs, per-iteration strides, alias relations) and reconstructs, per
// kernel loop, the *memory streams* the iteration drives: groups of
// accesses that share an address class and therefore sweep memory together.
// Each stream is classified (load / store / read-modify-write; unit-stride /
// strided / gather-scatter / fixed; write-allocate vs. streaming-store) and
// reduced to steady-state per-iteration line rates in closed form: with
// stride s and line size L the line-coverage pattern repeats every
// P = L/gcd(|s|,L) <= L iterations, so the first touches of iterations
// 0..P-1 give exact new-lines/iteration, first-touch (load-first vs.
// store-first) classification, dirty and non-temporal rates as count / P.
// Whether a member touches a line, and at which iteration first, is
// arithmetic on its displacement, width and the stride; negative strides
// are mirrored (byte a -> -a-1 maps line l -> -l-1).  A stream is
// unit-stride when its members' byte ranges, taken modulo |s|, cover the
// residue circle of |s| bytes.  Work is O(P * M^2 * ceil(w/L)) for M
// members of width up to w bytes.
//
// On top of the stream rates the engine computes analytic per-cache-level
// data volumes against a machine's cache geometry (uarch::CacheParams, the
// MDF `cache` directive) using layer-condition-style reasoning: a trailing
// band of a stream that re-touches lines G iterations after the leading
// band finds them in the innermost level whose (exclusive, victim-cascade)
// aggregate capacity exceeds G x the aggregate per-iteration footprint.
// The result is the set of boundary volumes the cache trace simulator
// (memsim::CacheHierarchy) measures dynamically -- computed without running
// it.  crosscheck.hpp replays the same access pattern through the simulator
// and verifies the two sides agree (the VP011 audit invariant); lints.hpp
// derives the VT001-VT008 diagnostic family from the stream structure.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asmir/ir.hpp"
#include "dataflow/dataflow.hpp"
#include "uarch/model.hpp"

namespace incore::traffic {

/// Direction/intent of a stream's accesses.
enum class StreamKind : std::uint8_t { Load, Store, ReadModifyWrite };

/// Spatial pattern of a stream's per-iteration advance.
enum class Pattern : std::uint8_t {
  UnitStride,     // contiguous coverage: every byte of the swept range
  Strided,        // provable constant stride with gaps
  GatherScatter,  // vector of indices; per-lane addresses unknown
  Fixed,          // stride 0: the same location every iteration
  Symbolic,       // stride not provable: footprint unbounded (VT008)
};

[[nodiscard]] const char* to_string(StreamKind k);
[[nodiscard]] const char* to_string(Pattern p);

/// Which level serves a trailing band's re-touches (layer condition).
enum class ReuseLevel : std::uint8_t { L1, L2, L3, Memory };

[[nodiscard]] const char* to_string(ReuseLevel l);

/// A contiguous cluster of accesses within a stream.  Bands sweep at the
/// stream's rate; every band beyond the leading one re-touches lines the
/// leading band visited `gap_iterations` earlier, which is what the layer
/// condition resolves to a serving cache level.
struct Band {
  long long lo = 0;  // effective-displacement byte range [lo, hi)
  long long hi = 0;
  double lines_per_iter = 0;  // distinct lines this band touches per iter
  bool has_store = false;
  /// Leading band: first toucher of new lines; no reuse.
  bool leading = false;
  double gap_iterations = 0;       // re-touch distance to the band ahead
  ReuseLevel reuse = ReuseLevel::L1;  // where re-touches are served
};

/// One reconstructed memory stream: all accesses sharing an address class
/// (base root/epoch, index root/epoch, scale, stride).
struct Stream {
  StreamKind kind = StreamKind::Load;
  Pattern pattern = Pattern::UnitStride;
  std::uint32_t base_root = 0xffffffffu;   // dataflow register root ids
  std::uint32_t index_root = 0xfffffffeu;
  int base_epoch = 0;
  int index_epoch = 0;
  int scale = 1;
  std::optional<long long> stride_bytes;  // per-iteration advance
  int width_bits = 0;                     // widest member access
  std::vector<int> accesses;  // indices into dataflow::Analysis::accesses
  std::vector<Band> bands;
  long long span_bytes = 0;  // footprint extent of one iteration

  // Steady-state per-iteration line rates (zero for Fixed/Symbolic/Gather).
  double lines_per_iter = 0;        // new lines (leading-edge rate)
  double load_first_lines = 0;      // new lines first touched by a load
  double store_first_lines = 0;     // new lines first touched by a store
  /// New lines a store touches before they leave the hierarchy.
  /// extract_streams() counts every store; analyze() leaves out stores of
  /// bands whose re-touch is served from memory (each such band re-reads
  /// the line and writes it back itself).
  double dirty_lines = 0;
  double nt_store_line_ops = 0;     // non-temporal store line-ops per iter

  /// Human-readable address expression, e.g. "[x1 + x2*8]" or "[rax]".
  [[nodiscard]] std::string address_expr(asmir::Isa isa) const;
};

/// Steady-state per-iteration traffic (cache lines / iteration) phrased as
/// the quantities the trace simulator meters: fill and eviction rates at
/// each boundary of the exclusive victim hierarchy.
struct Volumes {
  double l1_miss = 0;    // L1 fills: lines entering L1 (incl. claimed)
  double l1_evict = 0;   // L1 -> L2 victim lines
  double l2_hit = 0;     // reuse promotions served by L2
  double l2_evict = 0;   // L2 -> L3 victim lines
  double l3_hit = 0;     // reuse promotions served by L3
  double mem_read = 0;   // lines read from memory
  double mem_write = 0;  // lines written to memory (write-backs + NT)
  double claimed = 0;    // store misses allocated without a memory read

  /// Bytes per iteration crossing the named boundary (up = toward the
  /// core, down = away), with `line_bytes` from the machine's geometry.
  [[nodiscard]] double bytes_in_l1(int line_bytes) const {
    return (l1_miss - claimed) * line_bytes;
  }
  [[nodiscard]] double bytes_out_l1(int line_bytes) const {
    return l1_evict * line_bytes;
  }
  [[nodiscard]] double bytes_mem(int line_bytes) const {
    return (mem_read + mem_write) * line_bytes;
  }
};

struct Result {
  const asmir::Program* prog = nullptr;
  const uarch::MachineModel* mm = nullptr;
  std::vector<Stream> streams;
  Volumes volumes;
  /// False when any stream is Symbolic or GatherScatter: the volumes cover
  /// only the provable streams and are a lower bound.
  bool exact = true;
  /// Streams excluded from the volumes (symbolic stride or gather).
  int unbounded_streams = 0;
  /// Total distinct sequential line streams (bands), for VT007.
  int hw_stream_count = 0;
};

/// Machine-independent stream reconstruction over a dataflow analysis.
[[nodiscard]] std::vector<Stream> extract_streams(
    const dataflow::Analysis& df);

/// Full analysis: streams + analytic volumes against the machine's cache
/// geometry.  Never runs the trace simulator.
[[nodiscard]] Result analyze(const asmir::Program& prog,
                             const uarch::MachineModel& mm);

/// Human-readable report: stream table, per-band reuse levels, volume table.
[[nodiscard]] std::string to_text(const Result& r);

/// Machine-readable rendering of the same content.
[[nodiscard]] std::string to_json(const Result& r);

/// True when `mnemonic` is a non-temporal (streaming) store on `isa`.
[[nodiscard]] bool is_nontemporal_store(const std::string& mnemonic,
                                        asmir::Isa isa);

}  // namespace incore::traffic

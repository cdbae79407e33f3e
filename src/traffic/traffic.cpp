#include "traffic/traffic.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <tuple>
#include <unordered_map>

#include "memsim/cachesim.hpp"
#include "memsim/memsim.hpp"
#include "support/strings.hpp"

namespace incore::traffic {

namespace {

using dataflow::MemAccess;

constexpr std::uint32_t kNoBase = 0xffffffffu;
constexpr std::uint32_t kNoIndex = 0xfffffffeu;
/// Sentinel grouping key for accesses without a provable stride.
constexpr long long kSymbolicStride = std::numeric_limits<long long>::min();

[[nodiscard]] long long floor_div(long long a, long long b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

[[nodiscard]] long long floor_mod(long long a, long long b) {
  return a - floor_div(a, b) * b;
}

[[nodiscard]] long long access_width_bytes(const MemAccess& a) {
  return std::max<long long>(a.width_bits / 8, 1);
}

/// The address-class key: accesses with equal keys sweep memory together.
struct StreamKey {
  std::uint32_t base;
  int base_epoch;
  std::uint32_t index;
  int index_epoch;
  int scale;
  long long stride;

  [[nodiscard]] auto tie() const {
    return std::tie(base, base_epoch, index, index_epoch, scale, stride);
  }
  bool operator<(const StreamKey& o) const { return tie() < o.tie(); }
};

[[nodiscard]] StreamKey key_of(const MemAccess& a) {
  StreamKey k{};
  k.base = a.base;
  k.base_epoch = a.base != kNoBase ? a.base_epoch : 0;
  k.index = a.index;
  k.index_epoch = a.index != kNoIndex ? a.index_epoch : 0;
  // Without an index register the scale is meaningless; normalize it so it
  // cannot split one address class into two streams.
  k.scale = a.index != kNoIndex ? a.scale : 1;
  k.stride = a.stride_bytes ? *a.stride_bytes : kSymbolicStride;
  return k;
}

/// One member access of a stream, pre-resolved for the rate arithmetic.
struct Member {
  long long lo = 0;       // effective displacement of the first byte
  long long width = 1;    // bytes
  bool is_load = false;
  bool is_store = false;
  bool nontemporal = false;
};

/// The members of a stream, in program order.
[[nodiscard]] std::vector<Member> members_of(const Stream& s,
                                             const asmir::Program& prog,
                                             const dataflow::Analysis& df) {
  std::vector<Member> members;
  members.reserve(s.accesses.size());
  for (int ai : s.accesses) {
    const MemAccess& a = df.accesses[static_cast<std::size_t>(ai)];
    Member m;
    m.lo = a.effective_displacement();
    m.width = access_width_bytes(a);
    m.is_load = a.is_load;
    m.is_store = a.is_store;
    m.nontemporal =
        a.is_store &&
        is_nontemporal_store(
            prog.code[static_cast<std::size_t>(a.instr)].mnemonic, prog.isa);
    members.push_back(m);
  }
  return members;
}

struct Rates {
  double lines = 0;        // new lines / iteration
  double load_first = 0;
  double store_first = 0;
  double dirty = 0;
  double nt_line_ops = 0;  // non-temporal store line-operations / iteration
};

/// Exact steady-state rates of a set of members advancing by `stride`.
/// Line coverage repeats every P = line/gcd(|stride|, line) iterations, so
/// the first touches falling in iterations [0, P) give every rate as
/// count / P.  Member k first reaches line l at iteration
/// i_k = ceil((l*line - (lo_k + w_k - 1)) / stride) and touches it at all
/// iff lo_k + i_k*stride <= (l+1)*line - 1; a line is new at (i, j) iff
/// (i, j) is the lexicographic minimum of the (i_k, k).  Negative strides
/// are mirrored (byte a -> -a-1 maps line l -> -l-1).  Non-temporal
/// stores bypass the caches: they count line operations, never lines.
/// Work: O(P * M^2 * ceil(w/line)).
[[nodiscard]] Rates line_rates(std::vector<Member> members, long long stride,
                               int line_bytes) {
  if (stride < 0) {
    for (Member& m : members) m.lo = -m.lo - m.width;
    stride = -stride;
  }
  const long long line = line_bytes;
  const long long period = line / std::gcd(stride, line);
  constexpr long long kNever = std::numeric_limits<long long>::max();
  const auto first_touch = [&](const Member& m, long long l) {
    const long long i = -floor_div(m.lo + m.width - 1 - l * line, stride);
    return m.lo + i * stride <= (l + 1) * line - 1 ? i : kNever;
  };
  long long lines = 0;
  long long store_first = 0;
  long long dirty = 0;
  long long nt_ops = 0;
  for (long long i = 0; i < period; ++i) {
    for (std::size_t j = 0; j < members.size(); ++j) {
      const Member& m = members[j];
      const long long l0 = floor_div(m.lo + i * stride, line);
      const long long l1 = floor_div(m.lo + i * stride + m.width - 1, line);
      if (m.nontemporal) {
        nt_ops += l1 - l0 + 1;
        continue;
      }
      for (long long l = l0; l <= l1; ++l) {
        bool fresh = true;
        bool dirtied = false;
        for (std::size_t k = 0; k < members.size() && fresh; ++k) {
          if (members[k].nontemporal) continue;
          const long long ik = first_touch(members[k], l);
          if (ik == kNever) continue;
          fresh = ik > i || (ik == i && k >= j);
          dirtied |= members[k].is_store;
        }
        if (!fresh) continue;
        ++lines;
        store_first += m.is_store && !m.is_load;
        dirty += dirtied;
      }
    }
  }
  const double denom = static_cast<double>(period);
  Rates r;
  r.lines = static_cast<double>(lines) / denom;
  r.store_first = static_cast<double>(store_first) / denom;
  r.load_first = r.lines - r.store_first;
  r.dirty = static_cast<double>(dirty) / denom;
  r.nt_line_ops = static_cast<double>(nt_ops) / denom;
  return r;
}

/// Contiguity test: member k covers exactly the bytes a with
/// (a - lo_k) mod |stride| < w_k, so coverage is gap-free iff the residue
/// arcs cover the circle of |stride| bytes -- iff no arc's end falls in a
/// hole.
[[nodiscard]] bool covers_residue_circle(const std::vector<Member>& members,
                                         long long stride) {
  const long long as = std::llabs(stride);
  const auto covered = [&](long long byte) {
    return std::ranges::any_of(members, [&](const Member& m) {
      return floor_mod(byte - m.lo, as) < m.width;
    });
  };
  return std::ranges::all_of(
      members, [&](const Member& m) { return covered(m.lo + m.width); });
}

[[nodiscard]] bool is_vector_mnemonic_nt(const std::string& m) {
  // x86: movnti / movntq / movntdq / movntps / movntpd / vmovnt*.
  const std::string_view sv = m;
  return sv.starts_with("movnt") || sv.starts_with("vmovnt");
}

/// Builds the streams of one dataflow analysis at the given line size.
[[nodiscard]] std::vector<Stream> extract(const asmir::Program& prog,
                                          const dataflow::Analysis& df,
                                          int line_bytes) {
  std::map<StreamKey, std::vector<int>> groups;
  for (std::size_t i = 0; i < df.accesses.size(); ++i) {
    groups[key_of(df.accesses[i])].push_back(static_cast<int>(i));
  }

  std::vector<Stream> streams;
  streams.reserve(groups.size());
  for (const auto& [key, members_idx] : groups) {
    Stream s;
    s.base_root = key.base;
    s.index_root = key.index;
    s.base_epoch = key.base_epoch;
    s.index_epoch = key.index_epoch;
    s.scale = key.scale;
    s.accesses = members_idx;
    if (key.stride != kSymbolicStride) s.stride_bytes = key.stride;

    bool any_load = false;
    bool any_store = false;
    bool any_gather = false;
    for (int ai : members_idx) {
      const MemAccess& a = df.accesses[static_cast<std::size_t>(ai)];
      any_load |= a.is_load;
      any_store |= a.is_store;
      any_gather |= a.is_gather;
      s.width_bits = std::max(s.width_bits, a.width_bits);
    }
    s.kind = any_load && any_store ? StreamKind::ReadModifyWrite
             : any_store          ? StreamKind::Store
                                  : StreamKind::Load;
    const std::vector<Member> members = members_of(s, prog, df);

    long long min_lo = members.front().lo;
    long long max_hi = members.front().lo + members.front().width;
    for (const Member& m : members) {
      min_lo = std::min(min_lo, m.lo);
      max_hi = std::max(max_hi, m.lo + m.width);
    }
    s.span_bytes = max_hi - min_lo;

    if (any_gather) {
      s.pattern = Pattern::GatherScatter;
      streams.push_back(std::move(s));
      continue;
    }
    if (!s.stride_bytes) {
      s.pattern = Pattern::Symbolic;
      streams.push_back(std::move(s));
      continue;
    }
    const long long stride = *s.stride_bytes;
    if (stride == 0) {
      s.pattern = Pattern::Fixed;
      Band b;
      b.lo = min_lo;
      b.hi = max_hi;
      b.leading = true;
      b.has_store = any_store;
      s.bands.push_back(b);
      streams.push_back(std::move(s));
      continue;
    }
    const long long as = std::llabs(stride);

    // --- band clustering: accesses whose ranges touch within one period
    // sweep share a band; larger gaps separate reuse distances. ---
    std::vector<Member> sorted = members;
    std::sort(sorted.begin(), sorted.end(),
              [](const Member& a, const Member& b) { return a.lo < b.lo; });
    struct RawBand {
      long long lo, hi;
      std::vector<Member> members;
    };
    std::vector<RawBand> raw;
    for (const Member& m : sorted) {
      if (!raw.empty() && m.lo - raw.back().hi <= line_bytes + as) {
        raw.back().hi = std::max(raw.back().hi, m.lo + m.width);
        raw.back().members.push_back(m);
      } else {
        raw.push_back(RawBand{m.lo, m.lo + m.width, {m}});
      }
    }
    // Sweep order: the leading band is the one the advance runs into.
    if (stride > 0) std::reverse(raw.begin(), raw.end());

    const Rates rates = line_rates(members, stride, line_bytes);
    s.lines_per_iter = rates.lines;
    s.load_first_lines = rates.load_first;
    s.store_first_lines = rates.store_first;
    s.dirty_lines = rates.dirty;
    s.nt_store_line_ops = rates.nt_line_ops;

    for (std::size_t bi = 0; bi < raw.size(); ++bi) {
      Band b;
      b.lo = raw[bi].lo;
      b.hi = raw[bi].hi;
      b.leading = bi == 0;
      for (const Member& m : raw[bi].members) b.has_store |= m.is_store;
      if (bi == 0) {
        b.lines_per_iter = rates.lines;
      } else {
        b.lines_per_iter =
            line_rates(raw[bi].members, stride, line_bytes).lines;
        const RawBand& ahead = raw[bi - 1];
        const long long gap = stride > 0 ? ahead.lo - raw[bi].hi
                                         : raw[bi].lo - ahead.hi;
        b.gap_iterations =
            static_cast<double>(std::max<long long>(gap, 0)) /
            static_cast<double>(as);
      }
      s.bands.push_back(b);
    }

    s.pattern = covers_residue_circle(members, stride) ? Pattern::UnitStride
                                                       : Pattern::Strided;
    streams.push_back(std::move(s));
  }
  return streams;
}

/// Static model of the Grace streaming-write detector.  The detector's
/// decision depends only on the store line sequence, never on cache state,
/// so replaying memsim::ClaimDetector over the canonical synthesized line
/// sequence reproduces the trace simulator's claim rate exactly.  A claim
/// reduces memory reads only when the line's first touch is that very
/// store (otherwise the store hits in cache and the claim flag is moot),
/// so loads of the same streams participate as residency markers.
[[nodiscard]] double claim_rate(const std::vector<Stream>& streams,
                                const dataflow::Analysis& df,
                                const asmir::Program& prog, int line_bytes,
                                int warmup_lines) {
  // Canonical disjoint stream bases (1 MiB spacing, staggered by 68 lines;
  // crosscheck.cpp uses the same layout so the sequences agree).
  struct Op {
    std::size_t stream;
    long long lo;
    long long width;
    bool is_store;
    int order;  // program order (access index)
  };
  std::vector<Op> ops;
  std::vector<long long> base(streams.size(), 0);
  long long cursor = 1ll << 30;
  bool any_store = false;
  for (std::size_t si = 0; si < streams.size(); ++si) {
    const Stream& s = streams[si];
    base[si] = cursor;
    cursor += (1 << 20) + 68ll * line_bytes;
    // Symbolic and gather addresses are unknowable; the cross-check skips
    // those blocks with an explicit attribution, and the static claim
    // model conservatively ignores them too.
    if (!s.stride_bytes || s.pattern == Pattern::GatherScatter) continue;
    for (int ai : s.accesses) {
      const MemAccess& a = df.accesses[static_cast<std::size_t>(ai)];
      if (a.is_store &&
          is_nontemporal_store(
              prog.code[static_cast<std::size_t>(a.instr)].mnemonic,
              prog.isa)) {
        continue;  // NT stores bypass the hierarchy and the detector
      }
      ops.push_back(Op{si, a.effective_displacement(), access_width_bytes(a),
                       a.is_store, ai});
      any_store |= a.is_store;
    }
  }
  if (!any_store) return 0.0;
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.order < b.order; });

  memsim::ClaimDetector detector(warmup_lines);
  std::unordered_map<long long, bool> touched;
  // Enough iterations for every advancing stream to cross several pages.
  long long min_stride = 1 << 12;
  for (const Op& op : ops) {
    const long long st = std::llabs(*streams[op.stream].stride_bytes);
    if (st > 0) min_stride = std::min(min_stride, st);
  }
  const long long total =
      std::min<long long>(16 * 4096 / min_stride + 256, 1 << 18);
  const long long window_lo = total / 2;
  long long claims = 0;
  for (long long i = 0; i < total; ++i) {
    for (const Op& op : ops) {
      const long long stride = *streams[op.stream].stride_bytes;
      const long long lo = base[op.stream] + op.lo + i * stride;
      const long long l0 = floor_div(lo, line_bytes);
      const long long l1 = floor_div(lo + op.width - 1, line_bytes);
      for (long long l = l0; l <= l1; ++l) {
        bool claim = false;
        if (op.is_store) {
          claim = detector.should_claim(static_cast<std::uint64_t>(l));
        }
        auto [it, fresh] = touched.try_emplace(l, true);
        (void)it;
        if (claim && fresh && i >= window_lo) ++claims;
      }
    }
  }
  return static_cast<double>(claims) /
         static_cast<double>(total - window_lo);
}

}  // namespace

const char* to_string(StreamKind k) {
  switch (k) {
    case StreamKind::Load: return "load";
    case StreamKind::Store: return "store";
    case StreamKind::ReadModifyWrite: return "rmw";
  }
  return "?";
}

const char* to_string(Pattern p) {
  switch (p) {
    case Pattern::UnitStride: return "unit-stride";
    case Pattern::Strided: return "strided";
    case Pattern::GatherScatter: return "gather-scatter";
    case Pattern::Fixed: return "fixed";
    case Pattern::Symbolic: return "symbolic";
  }
  return "?";
}

const char* to_string(ReuseLevel l) {
  switch (l) {
    case ReuseLevel::L1: return "L1";
    case ReuseLevel::L2: return "L2";
    case ReuseLevel::L3: return "L3";
    case ReuseLevel::Memory: return "MEM";
  }
  return "?";
}

bool is_nontemporal_store(const std::string& mnemonic, asmir::Isa isa) {
  if (isa == asmir::Isa::AArch64) {
    // stnp: non-temporal pair.  (SVE stnt1* would qualify too.)
    return mnemonic == "stnp" || mnemonic.starts_with("stnt1");
  }
  return is_vector_mnemonic_nt(mnemonic);
}

std::string Stream::address_expr(asmir::Isa isa) const {
  auto root_name = [&](std::uint32_t root) {
    asmir::Register r;
    r.cls = static_cast<asmir::RegClass>(root >> 8);
    r.index = static_cast<int>(root & 0xffu);
    r.width_bits = 64;
    return r.name(isa);
  };
  std::string out = "[";
  if (base_root != kNoBase) {
    out += root_name(base_root);
    if (base_epoch > 0) out += support::format("#%d", base_epoch);
  }
  if (index_root != kNoIndex) {
    if (out.size() > 1) out += " + ";
    out += root_name(index_root);
    if (index_epoch > 0) out += support::format("#%d", index_epoch);
    if (scale != 1) out += support::format("*%d", scale);
  }
  if (out.size() == 1) out += "<absolute>";
  out += "]";
  return out;
}

std::vector<Stream> extract_streams(const dataflow::Analysis& df) {
  return extract(*df.prog, df, 64);
}

Result analyze(const asmir::Program& prog, const uarch::MachineModel& mm) {
  Result r;
  r.prog = &prog;
  r.mm = &mm;
  const dataflow::Analysis df = dataflow::analyze(prog);
  const uarch::CacheParams& cp = mm.cache;
  r.streams = extract(prog, df, cp.line_bytes);

  // Aggregate sweep footprint drives every reuse distance.  Each band of
  // every stream occupies its own moving window of cache, so the distinct
  // lines between a touch and its re-touch accumulate over ALL bands --
  // counting only the leading edges undercounts multi-band stencils by
  // the band count and misplaces the layer condition.
  double agg_bytes_per_iter = 0;
  for (const Stream& s : r.streams) {
    double stream_bytes = 0;
    for (const Band& b : s.bands) stream_bytes += b.lines_per_iter;
    if (s.bands.empty()) stream_bytes = s.lines_per_iter;
    agg_bytes_per_iter += stream_bytes * cp.line_bytes;
  }

  const double c1 = static_cast<double>(cp.l1_bytes);
  const double c12 = c1 + static_cast<double>(cp.l2_bytes);
  const double c123 = c12 + static_cast<double>(cp.l3_bytes);

  Volumes& v = r.volumes;
  for (Stream& s : r.streams) {
    if (s.pattern == Pattern::Symbolic || s.pattern == Pattern::GatherScatter) {
      ++r.unbounded_streams;
      r.exact = false;
      continue;
    }
    if (s.pattern == Pattern::UnitStride || s.pattern == Pattern::Strided) {
      r.hw_stream_count += static_cast<int>(s.bands.size());
    }
    const double lambda = s.lines_per_iter;
    if (lambda <= 0 && s.nt_store_line_ops <= 0) continue;

    // Trailing bands: the layer condition picks the level serving each
    // re-touch.  A band served from memory re-reads lines that left the
    // hierarchy and opens a new residency; a line is written back once per
    // residency in which one of that residency's stores touched it.
    std::vector<int> residency(s.bands.size(), 0);
    std::vector<bool> stored{false};
    for (std::size_t bi = 0; bi < s.bands.size(); ++bi) {
      Band& b = s.bands[bi];
      if (!b.leading) {
        const double reuse_bytes = b.gap_iterations * agg_bytes_per_iter;
        b.reuse = reuse_bytes <= c1    ? ReuseLevel::L1
                  : reuse_bytes <= c12 ? ReuseLevel::L2
                  : reuse_bytes <= c123 ? ReuseLevel::L3
                                        : ReuseLevel::Memory;
        if (b.reuse == ReuseLevel::Memory) stored.push_back(false);
      }
      residency[bi] = static_cast<int>(stored.size()) - 1;
      if (b.has_store) stored.back() = true;
    }
    if (std::find(stored.begin() + 1, stored.end(), true) != stored.end()) {
      // Stores of later residencies do not dirty the leading one (only the
      // dirty rate of this recount is read).
      std::vector<Member> members = members_of(s, prog, df);
      for (Member& m : members) {
        for (std::size_t bi = 0; bi < s.bands.size(); ++bi) {
          const Band& b = s.bands[bi];
          if (m.lo >= b.lo && m.lo < b.hi && residency[bi] > 0) {
            m.is_store = false;
          }
        }
      }
      s.dirty_lines =
          line_rates(members, *s.stride_bytes, cp.line_bytes).dirty;
    }

    // Leading-edge lifetime: fill, full descent, one write-back if dirty.
    v.l1_miss += lambda;
    v.l1_evict += lambda;
    v.l2_evict += lambda;
    v.mem_read += lambda;
    v.mem_write += s.dirty_lines;
    v.mem_write += s.nt_store_line_ops;

    // Re-touch traffic follows the exclusive victim hierarchy: promotion
    // and re-descent.
    for (std::size_t bi = 0; bi < s.bands.size(); ++bi) {
      const Band& b = s.bands[bi];
      if (b.leading) continue;
      const double rho = b.lines_per_iter;
      switch (b.reuse) {
        case ReuseLevel::L1:
          break;
        case ReuseLevel::L2:
          v.l1_miss += rho;
          v.l1_evict += rho;
          v.l2_hit += rho;
          break;
        case ReuseLevel::L3:
          v.l1_miss += rho;
          v.l1_evict += rho;
          v.l3_hit += rho;
          v.l2_evict += rho;
          break;
        case ReuseLevel::Memory:
          v.l1_miss += rho;
          v.l1_evict += rho;
          v.l2_evict += rho;
          v.mem_read += rho;
          if (stored[static_cast<std::size_t>(residency[bi])]) {
            v.mem_write += rho;
          }
          break;
      }
    }
  }

  // Write-allocate evasion: Grace's automatic claim, modeled by replaying
  // the detector over the store line sequence.
  if (memsim::preset(mm.micro()).wa == memsim::WaMechanism::AutomaticClaim) {
    v.claimed =
        claim_rate(r.streams, df, prog, cp.line_bytes,
                   memsim::preset(mm.micro()).claim_detector_warmup_lines);
    v.mem_read = std::max(0.0, v.mem_read - v.claimed);
  }
  return r;
}

}  // namespace incore::traffic

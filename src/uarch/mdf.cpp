#include "uarch/mdf.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace incore::uarch {

using support::ModelError;
using support::format;
using support::trim;

const char* family_name(Micro m) {
  switch (m) {
    case Micro::NeoverseV2: return "neoverse-v2";
    case Micro::GoldenCove: return "golden-cove";
    case Micro::Zen4: return "zen4";
  }
  return "?";
}

bool family_from_name(std::string_view name, Micro& out) {
  const std::string n = support::to_lower(name);
  if (n == "neoverse-v2") {
    out = Micro::NeoverseV2;
  } else if (n == "golden-cove") {
    out = Micro::GoldenCove;
  } else if (n == "zen4") {
    out = Micro::Zen4;
  } else {
    return false;
  }
  return true;
}

namespace {

const char* isa_name(asmir::Isa isa) {
  return isa == asmir::Isa::AArch64 ? "aarch64" : "x86_64";
}

bool isa_from_name(std::string_view name, asmir::Isa& out) {
  if (name == "aarch64") {
    out = asmir::Isa::AArch64;
  } else if (name == "x86_64") {
    out = asmir::Isa::X86_64;
  } else {
    return false;
  }
  return true;
}

/// Shortest decimal string that parses back to exactly `v` (doubles need at
/// most 17 significant digits).  Keeps exported files human-readable ("0.5",
/// "10" — never "1e+01") while guaranteeing byte-identical predictions
/// after a reload.
std::string round_trip_number(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    return format("%lld", static_cast<long long>(v));
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::string s = format("%.*g", prec, v);
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  return format("%.17g", v);
}

/// '|'-joined port names of a mask, in port-declaration order.
std::string mask_spec(const MachineModel& mm, PortMask mask) {
  std::string out;
  for (std::size_t i = 0; i < mm.port_count(); ++i) {
    if ((mask >> i) & 1u) {
      if (!out.empty()) out += '|';
      out += mm.ports()[i];
    }
  }
  return out;
}

/// The ';'-separated occupancy spec MachineModel::add understands; "-" for
/// forms with no port use (eliminated moves, nops).
std::string ports_spec(const MachineModel& mm, const InstrPerf& perf) {
  if (perf.port_uses.empty()) return "-";
  std::string out;
  for (const PortUse& pu : perf.port_uses) {
    if (!out.empty()) out += ';';
    if (pu.cycles != 1.0) {
      out += round_trip_number(pu.cycles);
      out += 'x';
    }
    out += mask_spec(mm, pu.mask);
  }
  return out;
}

/// Value of an unsigned decimal "ddd", "ddd.ddd", ".ddd" or "ddd." whose
/// digits form an integer below 2^53, with at most 22 fraction digits.
/// Both operands of the division are then exact doubles, so the quotient
/// is correctly rounded and equals strtod's (Clinger's fast path).
/// nullopt for every other spelling.
std::optional<double> plain_decimal(std::string_view s) {
  static constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                      1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                      1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                                      1e18, 1e19, 1e20, 1e21, 1e22};
  constexpr std::uint64_t kMaxMantissa = std::uint64_t{1} << 53;
  std::uint64_t mantissa = 0;
  int fraction_digits = -1;  // -1 until the decimal point
  bool any_digit = false;
  for (const char c : s) {
    if (c >= '0' && c <= '9') {
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(c - '0');
      if (mantissa >= kMaxMantissa) return std::nullopt;
      any_digit = true;
      if (fraction_digits >= 0 && ++fraction_digits > 22) return std::nullopt;
    } else if (c == '.' && fraction_digits < 0) {
      fraction_digits = 0;
    } else {
      return std::nullopt;
    }
  }
  if (!any_digit) return std::nullopt;
  return static_cast<double>(mantissa) /
         kPow10[fraction_digits < 0 ? 0 : fraction_digits];
}

/// Parser context: one diagnostic shape everywhere.
struct Cursor {
  std::string source;
  int line = 0;

  [[noreturn]] void fail(const std::string& message) const {
    throw ModelError(format("%s:%d: %s", source.c_str(), line, message.c_str()));
  }

  /// The grammar is strtod's over the whole field; the plain decimals the
  /// exporter writes skip strtod and its temporary string.
  double number(std::string_view field, std::string_view what) const {
    if (const std::optional<double> v = plain_decimal(field)) return *v;
    const std::string s(field);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end != s.c_str() + s.size())
      fail(format("expected a number for %s, got '%s'",
                  std::string(what).c_str(), s.c_str()));
    return v;
  }

  int integer(std::string_view field, std::string_view what) const {
    const double v = number(field, what);
    const int i = static_cast<int>(v);
    if (static_cast<double>(i) != v)
      fail(format("expected an integer for %s, got '%s'",
                  std::string(what).c_str(), std::string(field).c_str()));
    return i;
  }
};

/// Splits a header line "key v1 v2 ..." into whitespace-separated fields.
std::vector<std::string_view> fields_of(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

}  // namespace

std::string save_machine_string(const MachineModel& mm) {
  std::string out;
  out += "# incore machine description; grammar in docs/machine-format.md.\n";
  out += "# Edit, version and reload with `incore-cli ... --machine-file`;\n";
  out += "# no recompilation required.\n";
  out += "mdf 1\n";
  out += "machine " + mm.name() + '\n';
  out += std::string("family ") + family_name(mm.micro()) + '\n';
  out += std::string("isa ") + isa_name(mm.isa()) + '\n';
  out += "ports";
  for (const std::string& p : mm.ports()) out += ' ' + p;
  out += '\n';
  out += "simd_width_bits " + format("%d", mm.simd_width_bits) + '\n';
  out += "l1_load_latency " + round_trip_number(mm.l1_load_latency) + '\n';
  out += "loads_per_cycle " + format("%d", mm.loads_per_cycle) + '\n';
  out += "stores_per_cycle " + format("%d", mm.stores_per_cycle) + '\n';
  const CoreResources& r = mm.resources();
  out += format(
      "resources decode=%d rename=%d retire=%d rob=%d scheduler=%d "
      "load_queue=%d store_queue=%d\n",
      r.decode_width, r.rename_width, r.retire_width, r.rob_size,
      r.scheduler_size, r.load_queue, r.store_queue);
  const CacheParams& c = mm.cache;
  out += format(
      "cache l1=%lld/%d l2=%lld/%d l3=%lld/%d line=%d prefetch_streams=%d\n",
      c.l1_bytes, c.l1_ways, c.l2_bytes, c.l2_ways, c.l3_bytes, c.l3_ways,
      c.line_bytes, c.prefetch_streams);
  const HierarchyParams& h = mm.hierarchy;
  out += "hierarchy l1_l2=" + round_trip_number(h.cy_per_cl_l1_l2) +
         " l2_l3=" + round_trip_number(h.cy_per_cl_l2_l3) +
         " l3_mem=" + round_trip_number(h.cy_per_cl_l3_mem) +
         " socket_cl_per_cy=" + round_trip_number(h.socket_cl_per_cy) +
         format(" cores=%d wa_evasion=%d\n", h.socket_cores,
                h.write_allocate_evaded ? 1 : 0);

  std::vector<std::string> forms = mm.forms();
  std::sort(forms.begin(), forms.end());
  out += "forms " + format("%zu", forms.size()) + '\n';
  // form <inv_tput> <latency> <uops> <acc_latency> <ports> <form text>
  for (const std::string& f : forms) {
    const InstrPerf* perf = mm.find(f);
    out += "form " + round_trip_number(perf->inverse_throughput) + ' ' +
           round_trip_number(perf->latency) + ' ' +
           round_trip_number(perf->uops) + ' ' +
           round_trip_number(perf->accumulator_latency) + ' ' +
           ports_spec(mm, *perf) + ' ' + f + '\n';
  }
  return out;
}

void save_machine_file(const MachineModel& mm, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ModelError("cannot write machine file " + path);
  const std::string text = save_machine_string(mm);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw ModelError("write failed for machine file " + path);
}

MachineModel load_machine_string(std::string_view text,
                                 std::string_view source_name) {
  Cursor at;
  at.source = std::string(source_name);

  bool saw_version = false;
  std::optional<std::string> name;
  std::optional<Micro> family;
  std::optional<asmir::Isa> isa;
  std::optional<std::vector<std::string>> ports;
  std::optional<int> simd_width_bits;
  std::optional<double> l1_load_latency;
  std::optional<int> loads_per_cycle;
  std::optional<int> stores_per_cycle;
  CoreResources res;
  std::optional<CacheParams> cache;
  std::optional<HierarchyParams> hierarchy;
  std::optional<std::size_t> declared_forms;
  std::size_t parsed_forms = 0;
  std::optional<MachineModel> mm;

  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++at.line;
    if (line.empty() || line.front() == '#') continue;

    // First field = directive key; the form directive keeps the tail intact
    // (form text contains spaces).
    std::size_t key_end = line.find_first_of(" \t");
    const std::string_view key = line.substr(0, key_end);
    const std::string_view rest =
        key_end == std::string_view::npos ? std::string_view{}
                                          : trim(line.substr(key_end));

    if (!saw_version) {
      if (key != "mdf") at.fail("file must start with the 'mdf 1' version line");
      if (rest != "1")
        at.fail(format("unsupported mdf version '%s' (this reader handles 1)",
                       std::string(rest).c_str()));
      saw_version = true;
      continue;
    }

    if (key == "form") {
      if (!mm) {
        // All header material must precede the first form.
        if (!name) at.fail("missing 'machine' header line before forms");
        if (!family) at.fail("missing 'family' header line before forms");
        if (!isa) at.fail("missing 'isa' header line before forms");
        if (!ports) at.fail("missing 'ports' header line before forms");
        mm.emplace(*name, *family, *isa, *ports);
        if (simd_width_bits) mm->simd_width_bits = *simd_width_bits;
        if (l1_load_latency) mm->l1_load_latency = *l1_load_latency;
        if (loads_per_cycle) mm->loads_per_cycle = *loads_per_cycle;
        if (stores_per_cycle) mm->stores_per_cycle = *stores_per_cycle;
        if (cache) mm->cache = *cache;
        if (hierarchy) mm->hierarchy = *hierarchy;
        mm->resources() = res;
      }
      // form <inv_tput> <latency> <uops> <acc_latency> <ports> <form text>
      std::array<std::string_view, 5> head;
      std::string_view tail = rest;
      for (std::string_view& field : head) {
        tail = trim(tail);
        const std::size_t sp = tail.find_first_of(" \t");
        if (tail.empty() || sp == std::string_view::npos)
          at.fail("truncated form line (need inverse-throughput, latency, "
                  "uops, accumulator-latency, ports and the form text)");
        field = tail.substr(0, sp);
        tail = tail.substr(sp);
      }
      const std::string_view form_text = trim(tail);
      if (form_text.empty())
        at.fail("truncated form line (missing the form text)");
      const double tp = at.number(head[0], "inverse throughput");
      const double lat = at.number(head[1], "latency");
      const double uops = at.number(head[2], "uops");
      const double acc = at.number(head[3], "accumulator latency");
      const std::string_view spec =
          head[4] == "-" ? std::string_view() : head[4];
      try {
        mm->add(form_text, tp, lat, spec, uops);
      } catch (const ModelError& e) {
        at.fail(e.what());
      }
      if (acc != 0.0) mm->set_accumulator_latency(form_text, acc);
      ++parsed_forms;
      continue;
    }

    if (mm) at.fail(format("header line '%s' after the first form",
                           std::string(key).c_str()));

    if (key == "machine") {
      if (rest.empty()) at.fail("'machine' needs a name");
      name = std::string(rest);
    } else if (key == "family") {
      Micro m{};
      if (!family_from_name(rest, m))
        at.fail(format("unknown family '%s' (known: neoverse-v2, "
                       "golden-cove, zen4)",
                       std::string(rest).c_str()));
      family = m;
    } else if (key == "isa") {
      asmir::Isa i{};
      if (!isa_from_name(rest, i))
        at.fail(format("unknown isa '%s' (known: aarch64, x86_64)",
                       std::string(rest).c_str()));
      isa = i;
    } else if (key == "ports") {
      std::vector<std::string> names;
      for (std::string_view f : fields_of(rest)) names.emplace_back(f);
      if (names.empty()) at.fail("'ports' needs at least one port name");
      ports = std::move(names);
    } else if (key == "simd_width_bits") {
      simd_width_bits = at.integer(rest, "simd_width_bits");
    } else if (key == "l1_load_latency") {
      l1_load_latency = at.number(rest, "l1_load_latency");
    } else if (key == "loads_per_cycle") {
      loads_per_cycle = at.integer(rest, "loads_per_cycle");
    } else if (key == "stores_per_cycle") {
      stores_per_cycle = at.integer(rest, "stores_per_cycle");
    } else if (key == "cache") {
      // Missing levels keep the family default (backwards compatibility
      // with pre-cache MDF files).
      CacheParams c = cache.value_or(
          family ? default_cache_params(*family) : CacheParams{});
      for (std::string_view f : fields_of(rest)) {
        const std::size_t eq = f.find('=');
        if (eq == std::string_view::npos)
          at.fail(format("cache expects key=value pairs, got '%s'",
                         std::string(f).c_str()));
        const std::string_view k = f.substr(0, eq);
        const std::string_view v = f.substr(eq + 1);
        auto level = [&](long long& bytes, int& ways) {
          const std::size_t slash = v.find('/');
          if (slash == std::string_view::npos)
            at.fail(format("cache level '%s' expects <bytes>/<ways>, got "
                           "'%s'",
                           std::string(k).c_str(), std::string(v).c_str()));
          bytes = static_cast<long long>(
              at.number(v.substr(0, slash), "cache size"));
          ways = at.integer(v.substr(slash + 1), "cache ways");
          if (bytes <= 0 || ways <= 0)
            at.fail(format("cache level '%s' must be positive",
                           std::string(k).c_str()));
        };
        if (k == "l1") {
          level(c.l1_bytes, c.l1_ways);
        } else if (k == "l2") {
          level(c.l2_bytes, c.l2_ways);
        } else if (k == "l3") {
          level(c.l3_bytes, c.l3_ways);
        } else if (k == "line") {
          c.line_bytes = at.integer(v, "cache line bytes");
          if (c.line_bytes <= 0) at.fail("cache line bytes must be positive");
        } else if (k == "prefetch_streams") {
          c.prefetch_streams = at.integer(v, "prefetch_streams");
          if (c.prefetch_streams <= 0)
            at.fail("prefetch_streams must be positive");
        } else {
          at.fail(format("unknown cache field '%s'", std::string(k).c_str()));
        }
      }
      cache = c;
    } else if (key == "hierarchy") {
      // Missing fields keep the family default (backwards compatibility
      // with pre-hierarchy MDF files).
      HierarchyParams h = hierarchy.value_or(
          family ? default_hierarchy_params(*family) : HierarchyParams{});
      for (std::string_view f : fields_of(rest)) {
        const std::size_t eq = f.find('=');
        if (eq == std::string_view::npos)
          at.fail(format("hierarchy expects key=value pairs, got '%s'",
                         std::string(f).c_str()));
        const std::string_view k = f.substr(0, eq);
        const std::string_view v = f.substr(eq + 1);
        auto positive = [&](std::string_view what) {
          const double d = at.number(v, what);
          if (d <= 0)
            at.fail(format("hierarchy field '%s' must be positive",
                           std::string(k).c_str()));
          return d;
        };
        if (k == "l1_l2") {
          h.cy_per_cl_l1_l2 = positive("hierarchy l1_l2 cycles per line");
        } else if (k == "l2_l3") {
          h.cy_per_cl_l2_l3 = positive("hierarchy l2_l3 cycles per line");
        } else if (k == "l3_mem") {
          h.cy_per_cl_l3_mem = positive("hierarchy l3_mem cycles per line");
        } else if (k == "socket_cl_per_cy") {
          h.socket_cl_per_cy = positive("hierarchy socket lines per cycle");
        } else if (k == "cores") {
          h.socket_cores = at.integer(v, "hierarchy socket cores");
          if (h.socket_cores <= 0)
            at.fail("hierarchy field 'cores' must be positive");
        } else if (k == "wa_evasion") {
          const int b = at.integer(v, "hierarchy wa_evasion flag");
          if (b != 0 && b != 1)
            at.fail("hierarchy field 'wa_evasion' must be 0 or 1");
          h.write_allocate_evaded = b == 1;
        } else {
          at.fail(
              format("unknown hierarchy field '%s'", std::string(k).c_str()));
        }
      }
      hierarchy = h;
    } else if (key == "forms") {
      declared_forms =
          static_cast<std::size_t>(at.integer(rest, "forms count"));
    } else if (key == "resources") {
      for (std::string_view f : fields_of(rest)) {
        const std::size_t eq = f.find('=');
        if (eq == std::string_view::npos)
          at.fail(format("resources expects key=value pairs, got '%s'",
                         std::string(f).c_str()));
        const std::string_view k = f.substr(0, eq);
        const int v = at.integer(f.substr(eq + 1), k);
        if (k == "decode") {
          res.decode_width = v;
        } else if (k == "rename") {
          res.rename_width = v;
        } else if (k == "retire") {
          res.retire_width = v;
        } else if (k == "rob") {
          res.rob_size = v;
        } else if (k == "scheduler") {
          res.scheduler_size = v;
        } else if (k == "load_queue") {
          res.load_queue = v;
        } else if (k == "store_queue") {
          res.store_queue = v;
        } else {
          at.fail(format("unknown resource '%s'", std::string(k).c_str()));
        }
      }
    } else {
      at.fail(format("unknown directive '%s'", std::string(key).c_str()));
    }
  }

  ++at.line;  // EOF diagnostics point one past the last line
  if (!saw_version) at.fail("empty file (expected the 'mdf 1' version line)");
  if (!mm) at.fail("truncated file: no instruction forms");
  if (declared_forms && *declared_forms != parsed_forms)
    at.fail(format("truncated file: header declares %zu forms, found %zu",
                   *declared_forms, parsed_forms));
  try {
    mm->validate();
  } catch (const ModelError& e) {
    throw ModelError(at.source + ": model failed validation: " + e.what());
  }
  return std::move(*mm);
}

MachineModel load_machine_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ModelError("cannot open machine file " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return load_machine_string(ss.str(), path);
}

}  // namespace incore::uarch

#include "server/sweep_args.hpp"

#include <climits>
#include <cstdlib>

#include "audit/audit.hpp"
#include "support/strings.hpp"
#include "traffic/traffic.hpp"
#include "uarch/registry.hpp"
#include "verify/diagnostics.hpp"

namespace incore::server {

std::string audit_verdict(const driver::Block& b) {
  // Each call gets its own sink: the verdict string carries the failed
  // codes.
  verify::DiagnosticSink sink;
  return audit::verdict_string(audit::audit_block(b, sink));
}

std::string traffic_line(const driver::Block& b) {
  const traffic::Result r = traffic::analyze(b.gen.program, *b.mm);
  return support::format("%.3fr+%.3fw%s", r.volumes.mem_read,
                         r.volumes.mem_write, r.exact ? "" : "+");
}

namespace {

/// Feeds every item of a comma list to `add`; the first empty or rejected
/// item is the error.
bool add_each(const std::string& flag, const std::string& list,
              const std::function<bool(const std::string&)>& add,
              std::string& error) {
  for (const std::string_view part : support::split(list, ',')) {
    const std::string item(support::trim(part));
    if (item.empty() || !add(item)) {
      error = flag + ": unknown value '" + item + "'";
      return false;
    }
  }
  return true;
}

constexpr kernels::Compiler kCompilers[] = {
    kernels::Compiler::Gcc, kernels::Compiler::Clang,
    kernels::Compiler::OneApi, kernels::Compiler::ArmClang};
constexpr kernels::OptLevel kOptLevels[] = {
    kernels::OptLevel::O1, kernels::OptLevel::O2, kernels::OptLevel::O3,
    kernels::OptLevel::Ofast};

/// Appends the member of `values` whose kernels::to_string() is `name`.
template <typename Values, typename T>
bool add_named(const Values& values, const std::string& name,
               std::vector<T>& out) {
  for (const T v : values) {
    if (name == kernels::to_string(v)) {
      out.push_back(v);
      return true;
    }
  }
  return false;
}

/// A whole decimal integer in [lo, hi]: no trailing junk.
bool parse_bounded(const std::string& text, long lo, long hi, long& out) {
  char* end = nullptr;
  out = std::strtol(text.c_str(), &end, 10);
  return !text.empty() && end != text.c_str() && *end == '\0' && out >= lo &&
         out <= hi;
}

}  // namespace

bool parse_core_counts(const std::string& list, std::vector<int>& out,
                       std::string& error, std::string_view command) {
  for (const std::string_view part : support::split(list, ',')) {
    const std::string item(support::trim(part));
    long n = 0;
    if (!parse_bounded(item, 1, 1024, n)) {
      error = std::string(command) +
              ": --cores expects core counts in [1, 1024], got '" + item + "'";
      return false;
    }
    out.push_back(static_cast<int>(n));
  }
  return true;
}

ServeArgs parse_serve_args(const std::vector<std::string>& tokens,
                           std::string_view prefix) {
  ServeArgs out;
  auto fail = [&](const std::string& flag, const char* expects,
                  const std::string& got) {
    out.error = std::string(prefix) + ": " + flag + " expects " + expects +
                ", got '" + got + "'";
  };
  for (std::size_t i = 0; i < tokens.size() && out.error.empty(); ++i) {
    const std::string& a = tokens[i];
    const bool has_value = i + 1 < tokens.size();
    long n = 0;
    if (a == "--socket" && has_value) {
      out.options.socket_path = tokens[++i];
    } else if (a == "--workers" && has_value) {
      if (!parse_bounded(tokens[++i], 1, 256, n)) {
        fail(a, "a count in [1, 256]", tokens[i]);
        continue;
      }
      out.options.service.evaluate_workers = static_cast<int>(n);
      out.options.service.finalize_workers = static_cast<int>(n);
    } else if (a == "--queue" && has_value) {
      if (!parse_bounded(tokens[++i], 1, LONG_MAX, n)) {
        fail(a, "a positive capacity", tokens[i]);
        continue;
      }
      out.options.service.queue_capacity = static_cast<std::size_t>(n);
    } else if (a == "--memo" && has_value) {
      if (!parse_bounded(tokens[++i], 0, LONG_MAX, n)) {
        fail(a, "a non-negative capacity (0 = unbounded)", tokens[i]);
        continue;
      }
      out.options.service.memo_capacity = static_cast<std::size_t>(n);
    } else {
      out.error = "unknown serve flag '" + a + "'";
      out.unknown_flag = true;
    }
  }
  return out;
}

SweepArgs parse_sweep_args(const std::vector<std::string>& tokens,
                           const FlagHook& front_end) {
  SweepArgs out;
  driver::SweepOptions& opt = out.options;
  for (std::size_t i = 0; i < tokens.size() && out.error.empty(); ++i) {
    const std::string& a = tokens[i];
    const auto value = [&]() -> const std::string* {
      if (i + 1 >= tokens.size()) {
        out.error = a + " needs a value";
        return nullptr;
      }
      return &tokens[++i];
    };
    const auto list = [&](const std::function<bool(const std::string&)>& add) {
      if (const std::string* v = value()) add_each(a, *v, add, out.error);
    };
    if (a == "--csv") {
      out.format = SweepFormat::Csv;
    } else if (a == "--json") {
      out.format = SweepFormat::Json;
    } else if (a == "--audit") {
      opt.audit = audit_verdict;
    } else if (a == "--traffic") {
      opt.traffic = traffic_line;
    } else if (a == "--cores") {
      if (const std::string* v = value())
        (void)parse_core_counts(*v, opt.cores, out.error);
    } else if (a == "--models") {
      list([&](const std::string& s) {
        driver::Model m;
        if (!driver::model_from_name(s, m)) return false;
        opt.models.push_back(m);
        return true;
      });
    } else if (a == "--machines") {
      list([&](const std::string& s) {
        uarch::MachineRef ref;
        if (!uarch::try_resolve_machine(s, ref)) return false;
        opt.machines.push_back(std::move(ref));
        return true;
      });
    } else if (a == "--machine-file") {
      // A malformed file throws its file:line diagnostic to the caller.
      if (const std::string* v = value()) {
        opt.machines.push_back(uarch::resolve_machine(*v));
      }
    } else if (a == "--kernels") {
      list([&](const std::string& s) {
        return add_named(kernels::all_kernels(), s, opt.kernels);
      });
    } else if (a == "--compilers") {
      list([&](const std::string& s) {
        return add_named(kCompilers, s, opt.compilers);
      });
    } else if (a == "--opt") {
      list([&](const std::string& s) {
        return add_named(kOptLevels, s, opt.opt_levels);
      });
    } else if (!front_end || !front_end(tokens, i, out.error)) {
      out.error = "unknown sweep flag '" + a + "'";
      out.unknown_flag = true;
    }
  }
  return out;
}

}  // namespace incore::server

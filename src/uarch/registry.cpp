#include "uarch/registry.hpp"

#include <algorithm>
#include <filesystem>
#include <mutex>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "uarch/embedded_models.hpp"
#include "uarch/mdf.hpp"

namespace incore::uarch {

using support::ModelError;

namespace {

/// All registry state is guarded by one mutex: resolution happens at CLI /
/// bench startup, never on the sweep hot path.
std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

/// A spelling "looks like" a file when it can only be a path: it has a
/// directory component or the .mdf extension.  Everything else is tried as
/// a name first so that registered models always win over stray files.
bool looks_like_path(std::string_view s) {
  return s.find('/') != std::string_view::npos ||
         s.find('\\') != std::string_view::npos ||
         support::ends_with(support::to_lower(s), ".mdf");
}

}  // namespace

// ------------------------------------------------------------ Micro bridge

const MachineModel& machine(Micro m) {
  switch (m) {
    case Micro::NeoverseV2: return *machine_ref(Micro::NeoverseV2).model;
    case Micro::GoldenCove: return *machine_ref(Micro::GoldenCove).model;
    case Micro::Zen4: return *machine_ref(Micro::Zen4).model;
  }
  // An out-of-range value (a cast from untrusted input) used to silently
  // return the Neoverse V2 model; fail loudly instead.
  throw ModelError(support::format("machine(): invalid Micro value %d",
                                   static_cast<int>(m)));
}

const std::vector<Micro>& all_micros() {
  static const std::vector<Micro> micros = {
      Micro::NeoverseV2, Micro::GoldenCove, Micro::Zen4};
  return micros;
}

bool micro_from_name(std::string_view name, Micro& out) {
  if (looks_like_path(name)) return false;
  const std::optional<Micro> tag =
      MachineRegistry::instance().trio_tag(support::to_lower(name));
  if (!tag) return false;
  out = *tag;
  return true;
}

const char* machine_names_help() {
  static const std::string help = MachineRegistry::instance().names_help();
  return help.c_str();
}

// ------------------------------------------------------------ the registry

MachineRegistry::MachineRegistry() {
  add_builtin("gcs", {"grace", "v2", "neoverse-v2"}, "neoverse-v2",
              Micro::NeoverseV2);
  add_builtin("spr", {"goldencove", "golden-cove", "sapphire-rapids"},
              "golden-cove", Micro::GoldenCove);
  add_builtin("genoa", {"zen4"}, "zen4", Micro::Zen4);
  // The auxiliary generational-comparison model: resolvable like any other
  // machine, but not a trio member (it reuses the Golden Cove family tag
  // for the out-of-model tables).
  add_builtin("icelake", {"ice-lake-sp", "icelake-sp", "icx"}, "icelake-sp",
              std::nullopt);
}

MachineRegistry& MachineRegistry::instance() {
  static MachineRegistry reg;
  return reg;
}

MachineRegistry::Entry* MachineRegistry::find_entry(
    std::string_view lower_name) {
  for (auto& e : entries_) {
    if (e->name == lower_name) return e.get();
    for (const std::string& a : e->aliases) {
      if (a == lower_name) return e.get();
    }
  }
  return nullptr;
}

const MachineRegistry::Entry* MachineRegistry::find_entry(
    std::string_view lower_name) const {
  return const_cast<MachineRegistry*>(this)->find_entry(lower_name);
}

void MachineRegistry::add_builtin(std::string name,
                                  std::vector<std::string> aliases,
                                  std::string_view model_file,
                                  std::optional<Micro> trio_tag) {
  if (find_entry(name) != nullptr)
    throw ModelError("machine name '" + name + "' is already registered");
  for (const std::string& a : aliases) {
    if (find_entry(a) != nullptr)
      throw ModelError("machine alias '" + a + "' is already registered");
  }
  auto e = std::make_unique<Entry>();
  e->mdf_text = detail::embedded_model_text(model_file);
  if (e->mdf_text.empty())
    throw ModelError("no embedded models/" + std::string(model_file) +
                     ".mdf for machine '" + name + "'");
  e->mdf_source = "models/" + std::string(model_file) + ".mdf";
  e->name = std::move(name);
  e->aliases = std::move(aliases);
  e->trio_tag = trio_tag;
  e->is_builtin = true;
  entries_.push_back(std::move(e));
}

const MachineModel& MachineRegistry::materialize(Entry& e) {
  if (!e.model) {
    // load_machine_string validates the model.
    e.model = std::make_unique<MachineModel>(
        load_machine_string(e.mdf_text, e.mdf_source));
  }
  return *e.model;
}

MachineRef MachineRegistry::add_model(std::string name, MachineModel model) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const std::string lower = support::to_lower(name);
  if (Entry* existing = find_entry(lower)) {
    if (existing->is_builtin)
      throw ModelError("cannot shadow built-in machine '" + lower + "'");
    existing->model = std::make_unique<MachineModel>(std::move(model));
    return MachineRef{existing->name, existing->model.get()};
  }
  auto e = std::make_unique<Entry>();
  e->name = lower;
  e->model = std::make_unique<MachineModel>(std::move(model));
  e->is_builtin = false;
  entries_.push_back(std::move(e));
  Entry& ref = *entries_.back();
  return MachineRef{ref.name, ref.model.get()};
}

bool MachineRegistry::try_resolve(std::string_view name_or_path,
                                  MachineRef& out) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const std::string lower = support::to_lower(name_or_path);
  if (!looks_like_path(name_or_path)) {
    Entry* e = find_entry(lower);
    if (e == nullptr) return false;
    out = MachineRef{e->name, &materialize(*e)};
    return true;
  }
  // A path: loaded once and cached under its exact spelling.
  const std::string path(name_or_path);
  for (auto& e : file_cache_) {
    if (e->name == path) {
      out = MachineRef{e->name, e->model.get()};
      return true;
    }
  }
  if (!std::filesystem::exists(path)) return false;
  auto e = std::make_unique<Entry>();
  e->name = path;
  e->model = std::make_unique<MachineModel>(load_machine_file(path));
  file_cache_.push_back(std::move(e));
  Entry& ref = *file_cache_.back();
  out = MachineRef{ref.name, ref.model.get()};
  return true;
}

MachineRef MachineRegistry::resolve(std::string_view name_or_path) {
  MachineRef out;
  if (!try_resolve(name_or_path, out)) {
    throw ModelError("unknown machine '" + std::string(name_or_path) +
                     "' (known: " + names_help() + ")");
  }
  return out;
}

std::vector<MachineRef> MachineRegistry::builtins() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<MachineRef> out;
  for (auto& e : entries_) {
    if (e->is_builtin) out.push_back(MachineRef{e->name, &materialize(*e)});
  }
  return out;
}

std::vector<MachineRef> MachineRegistry::trio() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<MachineRef> out;
  for (auto& e : entries_) {
    if (e->trio_tag) out.push_back(MachineRef{e->name, &materialize(*e)});
  }
  return out;
}

std::string MachineRegistry::names_help() const {
  std::string out;
  for (const auto& e : entries_) {
    if (!e->is_builtin) continue;
    if (!out.empty()) out += ", ";
    out += e->name;
    if (!e->aliases.empty()) {
      out += " (" + support::join(e->aliases, ", ") + ")";
    }
  }
  out += ", or a .mdf machine-description file path";
  return out;
}

std::optional<Micro> MachineRegistry::trio_tag(std::string_view name) const {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const Entry* e = find_entry(support::to_lower(name));
  return e != nullptr ? e->trio_tag : std::nullopt;
}

// ----------------------------------------------------------- free helpers

MachineRef resolve_machine(std::string_view name_or_path) {
  return MachineRegistry::instance().resolve(name_or_path);
}

bool try_resolve_machine(std::string_view name_or_path, MachineRef& out) {
  return MachineRegistry::instance().try_resolve(name_or_path, out);
}

MachineRef machine_ref(Micro m) {
  return MachineRegistry::instance().resolve(family_name(m));
}

const MachineModel& ice_lake_sp() {
  return *resolve_machine("icelake").model;
}

}  // namespace incore::uarch

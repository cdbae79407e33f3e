#pragma once
// The open machine registry: the successor of the closed `Micro` enum as
// the way the prediction stack names and obtains machine models.
//
// A MachineRef is a (name, model) pair; the registry resolves user-facing
// spellings to refs from three sources:
//   1. built-in models registered at startup (the paper trio plus the
//      auxiliary Ice Lake SP generational-comparison model), addressable by
//      their canonical name and the historical CLI aliases.  Each is the
//      checked-in models/*.mdf, embedded at build time (embedded_models.hpp)
//      and loaded with load_machine_string on first use;
//   2. machine-description files (docs/machine-format.md): any argument that
//      looks like a path — contains a '/' or ends in ".mdf" — is loaded with
//      uarch::load_machine_file and cached under that path;
//   3. models registered programmatically with add_model (what-if clones).
//
// The `Micro` enum survives underneath as the *family tag*: every model —
// built-in or loaded — carries one, and it selects the trio-specific tables
// that live outside the MachineModel itself (ECM hierarchy, chip power,
// testbed silicon config, compiler-personality codegen).  See
// MachineModel::micro() and the `family` line of the file format.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "uarch/model.hpp"

namespace incore::uarch {

/// A resolved machine: the registry name it answers to plus the (immutable,
/// registry-owned) model.  Cheap to copy; the model pointer stays valid for
/// the lifetime of the process.
struct MachineRef {
  std::string name;
  const MachineModel* model = nullptr;

  [[nodiscard]] const MachineModel& operator*() const { return *model; }
  [[nodiscard]] const MachineModel* operator->() const { return model; }
  explicit operator bool() const { return model != nullptr; }
};

class MachineRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in models.
  [[nodiscard]] static MachineRegistry& instance();

  /// Registers the embedded models/<model_file>.mdf under `name` (+
  /// aliases); it is loaded on first use.  `trio_tag` marks members of the
  /// paper's testbed trio (consulted by micro_from_name and the sweep
  /// matrix); the auxiliary models pass nullopt.  Throws
  /// support::ModelError if any spelling is taken or no such file was
  /// embedded.
  void add_builtin(std::string name, std::vector<std::string> aliases,
                   std::string_view model_file, std::optional<Micro> trio_tag);

  /// Registers an owned model under `name` (what-if clones built at run
  /// time).  Re-registration under the same name replaces the previous
  /// model; built-in names cannot be shadowed (throws ModelError).
  MachineRef add_model(std::string name, MachineModel model);

  /// Resolves a machine name, alias (case-insensitive) or .mdf file path.
  /// Throws support::ModelError when nothing matches (or the file fails to
  /// load/validate).
  [[nodiscard]] MachineRef resolve(std::string_view name_or_path);
  /// Non-throwing variant for CLI-style lookups; `out` is untouched on
  /// failure.  File-load *errors* (the spelling was a path but the file is
  /// malformed) still throw, so the user sees the loader diagnostic.
  [[nodiscard]] bool try_resolve(std::string_view name_or_path,
                                 MachineRef& out);

  /// The built-in models in registration (paper) order, loading them on
  /// first use.
  [[nodiscard]] std::vector<MachineRef> builtins();

  /// Members of the paper's testbed trio, in paper order.
  [[nodiscard]] std::vector<MachineRef> trio();

  /// One-line help text generated from the registered names and aliases.
  [[nodiscard]] std::string names_help() const;

  /// Trio tag for a registered *name* (not a path); nullopt for auxiliary
  /// models and unknown names.  Backs uarch::micro_from_name.
  [[nodiscard]] std::optional<Micro> trio_tag(std::string_view name) const;

 private:
  MachineRegistry();
  struct Entry;
  [[nodiscard]] Entry* find_entry(std::string_view lower_name);
  [[nodiscard]] const Entry* find_entry(std::string_view lower_name) const;
  [[nodiscard]] const MachineModel& materialize(Entry& e);

  struct Entry {
    std::string name;                  // canonical registered name
    std::vector<std::string> aliases;  // lower-cased alternative spellings
    std::string mdf_source;            // "models/<file>.mdf", for diagnostics
    std::string_view mdf_text;         // its embedded text (static storage)
    std::unique_ptr<MachineModel> model;  // owned; stable address
    std::optional<Micro> trio_tag;
    bool is_builtin = false;
  };
  std::vector<std::unique_ptr<Entry>> entries_;   // registration order
  std::vector<std::unique_ptr<Entry>> file_cache_;  // resolved .mdf paths
};

/// Convenience wrappers over MachineRegistry::instance().
[[nodiscard]] MachineRef resolve_machine(std::string_view name_or_path);
[[nodiscard]] bool try_resolve_machine(std::string_view name_or_path,
                                       MachineRef& out);

/// Ref for a built-in trio member (the bridge for call sites that still
/// think in Micro, e.g. sweep option builders).
[[nodiscard]] MachineRef machine_ref(Micro m);

}  // namespace incore::uarch

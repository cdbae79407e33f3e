#pragma once
// The checked-in machine-description files (models/*.mdf), compiled into
// the library at build time by embed_models.cmake.  They are the only
// source of the built-in machines: the registry loads each one with
// load_machine_string on first use.

#include <string_view>

namespace incore::uarch::detail {

/// Text of models/<stem>.mdf as of the build, e.g. stem "zen4", in static
/// storage; empty when no such file was embedded.
[[nodiscard]] std::string_view embedded_model_text(std::string_view stem);

}  // namespace incore::uarch::detail

#pragma once

#include <string>
#include <vector>

namespace incore::reproduce {

/// `incore-cli reproduce [artifact...]`: prints the named paper artifacts
/// (Tables I-III, Figs. 1-4, the ablations and the extension studies), or
/// every artifact in paper order when none is named.  Returns the process
/// exit status: 0, or 2 with the valid names on stderr for an unknown one.
int run(const std::vector<std::string>& artifacts);

}  // namespace incore::reproduce

// NAS Parallel Benchmark models (OpenMP — paper §5.1).
//
// With OMP_WAIT_POLICY=active (the paper's Figure 6 setup) threads spin at
// barriers; with the passive policy they block. `spinning` selects between
// the two. EP barely synchronises; CG/IS/UA sync finely.
#pragma once

#include <string>
#include <vector>

#include "src/wl/spec.h"

namespace irs::wl {

/// All modelled NPB applications, Figure 6 order.
std::vector<std::string> npb_names();

/// Look up one app; aborts on unknown names.
AppSpec npb_spec(const std::string& name, bool spinning = true);

}  // namespace irs::wl

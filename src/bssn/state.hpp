#pragma once
/// \file state.hpp
/// \brief Zipped storage of the 24 evolved BSSN fields over a mesh.

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "bssn/vars.hpp"
#include "common/types.hpp"

namespace dgr::bssn {

/// One field per variable, each over the mesh's deduplicated DOFs.
class BssnState {
 public:
  BssnState() = default;
  explicit BssnState(std::size_t ndofs) { resize(ndofs); }

  void resize(std::size_t ndofs) {
    for (auto& f : fields_) f.assign(ndofs, 0.0);
    ndofs_ = ndofs;
  }

  std::size_t num_dofs() const { return ndofs_; }

  Real* field(int v) { return fields_[v].data(); }
  const Real* field(int v) const { return fields_[v].data(); }

  std::array<Real*, kNumVars> ptrs() {
    std::array<Real*, kNumVars> p;
    for (int v = 0; v < kNumVars; ++v) p[v] = fields_[v].data();
    return p;
  }
  std::array<const Real*, kNumVars> cptrs() const {
    std::array<const Real*, kNumVars> p;
    for (int v = 0; v < kNumVars; ++v) p[v] = fields_[v].data();
    return p;
  }

  /// Max absolute difference against another state (all variables).
  Real max_abs_diff(const BssnState& o) const {
    Real m = 0;
    for (int v = 0; v < kNumVars; ++v)
      for (std::size_t d = 0; d < ndofs_; ++d)
        m = std::max(m, std::abs(fields_[v][d] - o.fields_[v][d]));
    return m;
  }

  /// Max absolute value over all variables (robust-stability diagnostics).
  Real max_abs() const {
    Real m = 0;
    for (int v = 0; v < kNumVars; ++v)
      for (std::size_t d = 0; d < ndofs_; ++d)
        m = std::max(m, std::abs(fields_[v][d]));
    return m;
  }

 private:
  std::array<std::vector<Real>, kNumVars> fields_;
  std::size_t ndofs_ = 0;
};

}  // namespace dgr::bssn

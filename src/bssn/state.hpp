#pragma once
/// \file state.hpp
/// \brief Zipped storage of the 24 evolved BSSN fields over a mesh.

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "bssn/vars.hpp"
#include "common/page_array.hpp"
#include "common/types.hpp"

namespace dgr::bssn {

/// One field per variable, each over the mesh's deduplicated DOFs. The 24
/// fields are consecutive slices of one page mapping (field(v) starts at
/// v * num_dofs()), so a state's memory is resident only where it has been
/// written and is returned to the system when the state is freed.
class BssnState {
 public:
  BssnState() = default;
  explicit BssnState(std::size_t ndofs) { resize(ndofs); }
  BssnState(const BssnState&) = default;
  BssnState& operator=(const BssnState&) = default;
  BssnState(BssnState&& o) noexcept
      : data_(std::move(o.data_)), ndofs_(std::exchange(o.ndofs_, 0)) {}
  BssnState& operator=(BssnState&& o) noexcept {
    if (this != &o) {
      data_ = std::move(o.data_);
      ndofs_ = std::exchange(o.ndofs_, 0);
    }
    return *this;
  }

  /// Discard every field and hold ndofs zeros per variable (fresh pages).
  void resize(std::size_t ndofs) {
    data_.resize(std::size_t(kNumVars) * ndofs);
    ndofs_ = ndofs;
  }

  std::size_t num_dofs() const { return ndofs_; }

  Real* field(int v) { return data_.data() + std::size_t(v) * ndofs_; }
  const Real* field(int v) const {
    return data_.data() + std::size_t(v) * ndofs_;
  }

  std::array<Real*, kNumVars> ptrs() {
    std::array<Real*, kNumVars> p;
    for (int v = 0; v < kNumVars; ++v) p[v] = field(v);
    return p;
  }
  std::array<const Real*, kNumVars> cptrs() const {
    std::array<const Real*, kNumVars> p;
    for (int v = 0; v < kNumVars; ++v) p[v] = field(v);
    return p;
  }

  /// Max absolute difference against another state (all variables).
  Real max_abs_diff(const BssnState& o) const {
    Real m = 0;
    for (std::size_t i = 0; i < data_.size(); ++i)
      m = std::max(m, std::abs(data_[i] - o.data_[i]));
    return m;
  }

  /// Max absolute value over all variables (robust-stability diagnostics).
  Real max_abs() const {
    Real m = 0;
    for (std::size_t i = 0; i < data_.size(); ++i)
      m = std::max(m, std::abs(data_[i]));
    return m;
  }

 private:
  PageArray<Real> data_;
  std::size_t ndofs_ = 0;
};

}  // namespace dgr::bssn

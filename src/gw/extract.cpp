#include "gw/extract.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "gw/psi4.hpp"
#include "mesh/sampling.hpp"

namespace dgr::gw {

namespace {
int num_modes(int lmax) {
  int n = 0;
  for (int l = 2; l <= lmax; ++l) n += 2 * l + 1;
  return n;
}
}  // namespace

WaveExtractor::WaveExtractor(std::vector<Real> radii, int lmax, int quad_order)
    : radii_(std::move(radii)), lmax_(lmax), quad_(gauss_product(quad_order)) {
  DGR_CHECK(lmax_ >= 2);
  basis_conj_.resize(num_modes(lmax_));
  for (int l = 2; l <= lmax_; ++l)
    for (int m = -l; m <= l; ++m) {
      auto& b = basis_conj_[SphereModes::mode_index(l, m)];
      b.resize(quad_.size());
      for (std::size_t i = 0; i < quad_.size(); ++i) {
        const auto& n = quad_.points[i];
        const Real theta = std::acos(std::clamp(n[2], Real(-1), Real(1)));
        const Real phi = std::atan2(n[1], n[0]);
        b[i] = std::conj(swsh_m2(l, m, theta, phi));
      }
    }
}

std::vector<SphereModes> WaveExtractor::extract(const mesh::Mesh& mesh,
                                                const Real* psi4_re,
                                                const Real* psi4_im) const {
  mesh::PointSampler sampler(mesh);
  const Real* const fields[2] = {psi4_re, psi4_im};
  std::vector<SphereModes> out;
  out.reserve(radii_.size());
  std::vector<Complex> samples(quad_.size());
  for (Real r : radii_) {
    for (std::size_t i = 0; i < quad_.size(); ++i) {
      const auto& n = quad_.points[i];
      Real v[2];
      sampler.evaluate_many(fields, 2, r * n[0], r * n[1], r * n[2], v);
      samples[i] = {v[0], v[1]};
    }
    out.push_back(decompose(samples, r));
  }
  return out;
}

std::vector<SphereModes> WaveExtractor::extract_from_state(
    const mesh::Mesh& mesh, const bssn::BssnState& state,
    const bssn::BssnParams& params) const {
  std::vector<Real> re(mesh.num_dofs()), im(mesh.num_dofs());
  compute_psi4_field(mesh, state, params, re.data(), im.data());
  return extract(mesh, re.data(), im.data());
}

SphereModes WaveExtractor::decompose(const std::vector<Complex>& samples,
                                     Real radius) const {
  DGR_CHECK(samples.size() == quad_.size());
  SphereModes modes;
  modes.radius = radius;
  modes.lmax = lmax_;
  modes.coeffs.resize(num_modes(lmax_));
  for (int l = 2; l <= lmax_; ++l)
    for (int m = -l; m <= l; ++m) {
      const auto& b = basis_conj_[SphereModes::mode_index(l, m)];
      Complex s{0, 0};
      for (std::size_t i = 0; i < quad_.size(); ++i)
        s += quad_.weights[i] * samples[i] * b[i];
      modes.coeffs[SphereModes::mode_index(l, m)] = s;
    }
  return modes;
}

}  // namespace dgr::gw

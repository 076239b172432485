#include "ensemble/scenario.hpp"

#include <cmath>

#include "bssn/initial_data.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "gw/strain.hpp"
#include "mesh/mesh.hpp"
#include "octree/refinement.hpp"
#include "solver/evolution.hpp"

namespace dgr::ensemble {

namespace {

constexpr std::string_view kMagic = "DSC2";  // scenario encoding v2
constexpr std::string_view kWaveMagic = "DWF1";

}  // namespace

std::string encode(const ScenarioConfig& cfg) {
  // Ints travel as their u32 two's-complement bits.
  ByteWriter w(4 + 15 * 8 + 5 * 4);
  w.raw(kMagic).real(cfg.q).real(cfg.separation);
  for (Real s : cfg.spin1) w.real(s);
  for (Real s : cfg.spin2) w.real(s);
  w.real(cfg.domain_half).u32(cfg.base_level).u32(cfg.finest_level);
  w.real(cfg.eps).u32(cfg.steps).u32(cfg.regrid_every);
  w.u32(cfg.extract_every).real(cfg.extraction_radius).real(cfg.cfl);
  w.real(cfg.ko_sigma).u32(cfg.subcycle);
  return w.take();
}

ScenarioConfig decode(std::string_view bytes) {
  ByteReader r(bytes, "DSC2 scenario encoding");
  r.magic(kMagic);
  ScenarioConfig cfg;
  cfg.q = r.real();
  cfg.separation = r.real();
  for (Real& s : cfg.spin1) s = r.real();
  for (Real& s : cfg.spin2) s = r.real();
  cfg.domain_half = r.real();
  cfg.base_level = static_cast<int>(r.u32());
  cfg.finest_level = static_cast<int>(r.u32());
  cfg.eps = r.real();
  cfg.steps = static_cast<int>(r.u32());
  cfg.regrid_every = static_cast<int>(r.u32());
  cfg.extract_every = static_cast<int>(r.u32());
  cfg.extraction_radius = r.real();
  cfg.cfl = r.real();
  cfg.ko_sigma = r.real();
  const std::uint32_t sub = r.u32();
  DGR_CHECK_MSG(sub <= 1, "subcycle flag must be 0 or 1, got " << sub);
  cfg.subcycle = sub != 0;
  r.finish();
  return cfg;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char be[8];
  for (int i = 0; i < 8; ++i) be[i] = static_cast<char>(v >> (56 - 8 * i));
  return to_hex({be, 8});
}

std::string ScenarioKey::hex() const { return hex16(hash); }

ScenarioConfig scenario_from_table4(const perf::ProductionConfig& cfg) {
  ScenarioConfig s;
  s.q = cfg.q;
  s.separation = cfg.separation / 4;  // 8 M production -> 2 M scaled
  s.domain_half = 16.0;
  // Shift the production level split (13-16 / 12) into the runnable band:
  // the small hole keeps its extra depth relative to the big one.
  s.base_level = 2;
  s.finest_level = 3 + (cfg.level_small - 13);
  // The horizon distinguishes rows with equal levels; encode it through
  // the step count (a few steps per 100 M of production horizon).
  s.steps = 2 + static_cast<int>(cfg.horizon / 200);
  return s;
}

std::size_t estimated_octants(const ScenarioConfig& cfg) {
  // Uniform base grid: 8^base_level octants; each cascade level adds a
  // ring of ~56 octants (a 4^3 refinement ball, 8 of which replace the
  // parent) around each of the two punctures.
  const std::size_t base = std::size_t{1}
                           << (3 * std::min(cfg.base_level, 10));
  const int cascade = std::max(0, cfg.finest_level - cfg.base_level);
  return base + 2u * 56u * static_cast<std::size_t>(cascade);
}

std::size_t Waveform::byte_size() const {
  return 4 + 3 * 8 + 2 * 4 + 8 + 8 +
         psi4_22.times.size() * 3 * 8 + strain.size() * 2 * 8;
}

std::string serialize(const Waveform& wf) {
  ByteWriter w(wf.byte_size());
  w.raw(kWaveMagic).u32(wf.steps).u32(wf.regrids).real(wf.t_final);
  w.u32(wf.psi4_22.l).u32(wf.psi4_22.m).real(wf.psi4_22.radius);
  w.u64(wf.psi4_22.times.size());
  for (std::size_t i = 0; i < wf.psi4_22.times.size(); ++i) {
    w.real(wf.psi4_22.times[i]);
    w.real(wf.psi4_22.values[i].real()).real(wf.psi4_22.values[i].imag());
  }
  w.u64(wf.strain.size());
  for (const Complex& h : wf.strain) w.real(h.real()).real(h.imag());
  return w.take();
}

Waveform deserialize(std::string_view bytes) {
  ByteReader r(bytes, "DWF1 waveform");
  r.magic(kWaveMagic);
  Waveform wf;
  wf.steps = static_cast<int>(r.u32());
  wf.regrids = static_cast<int>(r.u32());
  wf.t_final = r.real();
  wf.psi4_22.l = static_cast<int>(r.u32());
  wf.psi4_22.m = static_cast<int>(r.u32());
  wf.psi4_22.radius = r.real();
  const std::size_t n = r.count(3 * 8);
  wf.psi4_22.times.reserve(n);
  wf.psi4_22.values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = r.real(), re = r.real(), im = r.real();  // in order
    wf.psi4_22.append(t, Complex{re, im});
  }
  const std::size_t ns = r.count(2 * 8);
  wf.strain.reserve(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    const Real re = r.real(), im = r.real();
    wf.strain.emplace_back(re, im);
  }
  r.finish();
  return wf;
}

void validate_scenario(const ScenarioConfig& cfg) {
  const auto in = [](long v, long lo, long hi, const char* what) {
    DGR_CHECK_MSG(v >= lo && v <= hi, "scenario field " << what
                                          << " must be in [" << lo << ", "
                                          << hi << "], got " << v);
  };
  in(cfg.base_level, 1, 8, "base");
  in(cfg.finest_level, cfg.base_level, 8, "finest");
  in(cfg.steps, 1, 100000, "steps");
  in(cfg.regrid_every, 1, 1 << 20, "regrid");
  in(cfg.extract_every, 1, 1 << 20, "extract");
  // NaN fails every comparison, so `ok` is false for it too.
  const auto real = [](Real v, bool ok, const char* what, const char* rule) {
    DGR_CHECK_MSG(std::isfinite(v) && ok, "scenario field "
                                              << what << " must be finite and "
                                              << rule << ", got " << v);
  };
  real(cfg.q, cfg.q >= 1, "q", ">= 1");
  real(cfg.separation, cfg.separation > 0, "sep", "> 0");
  for (int b = 0; b < 2; ++b) {
    const auto& s = b == 0 ? cfg.spin1 : cfg.spin2;
    const Real n2 = s[0] * s[0] + s[1] * s[1] + s[2] * s[2];
    real(n2, n2 <= 1, b == 0 ? "s1 norm^2" : "s2 norm^2", "<= 1");
  }
  real(cfg.domain_half, cfg.domain_half > 0, "half", "> 0");
  real(cfg.extraction_radius,
       cfg.extraction_radius > 0 && cfg.extraction_radius < cfg.domain_half,
       "radius", "in (0, half)");
  // The regrid tolerance rule of solver::validate_regrid_config.
  real(cfg.eps, cfg.eps >= 0, "eps", ">= 0");
  real(cfg.cfl, cfg.cfl > 0, "cfl", "> 0");
  real(cfg.ko_sigma, cfg.ko_sigma >= 0, "ko", ">= 0");
}

Waveform run_scenario(const ScenarioConfig& cfg) {
  validate_scenario(cfg);

  // Quasi-circular binary with the configured spins, punctures slightly
  // off the grid axes (the bench_common convention).
  auto bhs = bssn::make_binary(cfg.q, cfg.separation);
  bhs[0].spin = cfg.spin1;
  bhs[1].spin = cfg.spin2;
  for (auto& b : bhs) {
    b.pos[1] = 0.011;
    b.pos[2] = 0.007;
  }

  std::vector<oct::Puncture> ps;
  for (const auto& b : bhs) ps.push_back({b.pos, cfg.finest_level});
  const oct::Domain dom{cfg.domain_half};
  auto mesh = std::make_shared<mesh::Mesh>(
      oct::build_puncture_octree(dom, ps, cfg.base_level), dom);

  solver::SolverConfig scfg;
  scfg.cfl = cfg.cfl;
  scfg.bssn.ko_sigma = cfg.ko_sigma;
  solver::BssnCtx ctx(mesh, scfg);
  bssn::set_punctures(*mesh, bhs, ctx.state());

  solver::EvolutionConfig ecfg;
  // The regrid band is pinned to [base, finest], so dt is constant across
  // regrids and `steps` RK4 steps span exactly steps * dt.
  const Real dt = ctx.suggested_dt();
  ecfg.t_end = cfg.steps * dt;
  ecfg.regrid_every = cfg.regrid_every;
  ecfg.extract_every = cfg.extract_every;
  ecfg.regrid.eps = cfg.eps;
  ecfg.regrid.min_level = cfg.base_level;
  ecfg.regrid.max_level = cfg.finest_level;
  ecfg.extraction_radii = {cfg.extraction_radius};
  ecfg.subcycle = cfg.subcycle;
  const auto res = solver::evolve(ctx, ecfg, nullptr);

  Waveform wf;
  wf.steps = res.steps;
  wf.regrids = res.regrids;
  wf.t_final = ctx.time();
  wf.psi4_22 = res.waves22.at(0);
  // Strain needs enough samples for the degree-2 detrend of the double
  // integration; short smoke runs memoize Psi4 only.
  if (wf.psi4_22.times.size() >= 4)
    wf.strain = gw::psi4_to_strain(wf.psi4_22.times, wf.psi4_22.values);
  return wf;
}

}  // namespace dgr::ensemble

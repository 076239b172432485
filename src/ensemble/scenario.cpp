#include "ensemble/scenario.hpp"

#include <bit>
#include <cmath>

#include "bssn/initial_data.hpp"
#include "common/error.hpp"
#include "gw/strain.hpp"
#include "mesh/mesh.hpp"
#include "octree/refinement.hpp"
#include "solver/evolution.hpp"

namespace dgr::ensemble {

namespace {

constexpr char kMagic[4] = {'D', 'S', 'C', '2'};  // scenario encoding v2
constexpr char kWaveMagic[4] = {'D', 'W', 'F', '1'};

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// Doubles travel as their IEEE-754 bit pattern: byte-for-byte round trip,
/// no formatting, no locale, -0.0 and NaN payloads preserved.
void put_real(std::string& out, Real v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

struct Reader {
  const std::string& b;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    DGR_CHECK_MSG(pos + n <= b.size(),
                  "truncated canonical encoding: need " << n << " bytes at "
                                                        << pos << " of "
                                                        << b.size());
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[pos++]))
           << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[pos++]))
           << (8 * i);
    return v;
  }
  Real real() { return std::bit_cast<Real>(u64()); }
};

}  // namespace

std::string encode(const ScenarioConfig& cfg) {
  std::string out;
  out.reserve(4 + 15 * 8 + 5 * 4);
  out.append(kMagic, 4);
  put_real(out, cfg.q);
  put_real(out, cfg.separation);
  for (Real s : cfg.spin1) put_real(out, s);
  for (Real s : cfg.spin2) put_real(out, s);
  put_real(out, cfg.domain_half);
  put_u32(out, static_cast<std::uint32_t>(cfg.base_level));
  put_u32(out, static_cast<std::uint32_t>(cfg.finest_level));
  put_real(out, cfg.eps);
  put_u32(out, static_cast<std::uint32_t>(cfg.steps));
  put_u32(out, static_cast<std::uint32_t>(cfg.regrid_every));
  put_u32(out, static_cast<std::uint32_t>(cfg.extract_every));
  put_real(out, cfg.extraction_radius);
  put_real(out, cfg.cfl);
  put_real(out, cfg.ko_sigma);
  put_u32(out, cfg.subcycle ? 1u : 0u);
  return out;
}

ScenarioConfig decode(const std::string& bytes) {
  DGR_CHECK_MSG(bytes.size() >= 4 && bytes.compare(0, 4, kMagic, 4) == 0,
                "not a canonical scenario encoding (bad magic)");
  Reader r{bytes, 4};
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
  DGR_CHECK_MSG(r.pos == bytes.size(),
                "trailing bytes after canonical scenario encoding");
  return cfg;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string ScenarioKey::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 0; i < 16; ++i)
    s[i] = digits[(hash >> (60 - 4 * i)) & 0xf];
  return s;
}

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
  std::string out;
  out.reserve(wf.byte_size());
  out.append(kWaveMagic, 4);
  put_u32(out, static_cast<std::uint32_t>(wf.steps));
  put_u32(out, static_cast<std::uint32_t>(wf.regrids));
  put_real(out, wf.t_final);
  put_u32(out, static_cast<std::uint32_t>(wf.psi4_22.l));
  put_u32(out, static_cast<std::uint32_t>(wf.psi4_22.m));
  put_real(out, wf.psi4_22.radius);
  put_u64(out, wf.psi4_22.times.size());
  for (std::size_t i = 0; i < wf.psi4_22.times.size(); ++i) {
    put_real(out, wf.psi4_22.times[i]);
    put_real(out, wf.psi4_22.values[i].real());
    put_real(out, wf.psi4_22.values[i].imag());
  }
  put_u64(out, wf.strain.size());
  for (const Complex& h : wf.strain) {
    put_real(out, h.real());
    put_real(out, h.imag());
  }
  return out;
}

Waveform deserialize(const std::string& bytes) {
  DGR_CHECK_MSG(bytes.size() >= 4 && bytes.compare(0, 4, kWaveMagic, 4) == 0,
                "not a serialized waveform (bad magic)");
  Reader r{bytes, 4};
  Waveform wf;
  wf.steps = static_cast<int>(r.u32());
  wf.regrids = static_cast<int>(r.u32());
  wf.t_final = r.real();
  wf.psi4_22.l = static_cast<int>(r.u32());
  wf.psi4_22.m = static_cast<int>(r.u32());
  wf.psi4_22.radius = r.real();
  const std::uint64_t n = r.u64();
  // Bounded by the actual payload: a corrupt count cannot trigger an
  // oversized allocation (the load_checkpoint hardening pattern).
  DGR_CHECK_MSG(n <= (bytes.size() - r.pos) / (3 * 8),
                "waveform sample count " << n << " exceeds payload");
  wf.psi4_22.times.reserve(n);
  wf.psi4_22.values.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Real t = r.real();
    const Real re = r.real();
    const Real im = r.real();
    wf.psi4_22.append(t, Complex{re, im});
  }
  const std::uint64_t ns = r.u64();
  DGR_CHECK_MSG(ns <= (bytes.size() - r.pos) / (2 * 8),
                "strain sample count " << ns << " exceeds payload");
  wf.strain.reserve(ns);
  for (std::uint64_t i = 0; i < ns; ++i) {
    const Real re = r.real();
    const Real im = r.real();
    wf.strain.emplace_back(re, im);
  }
  DGR_CHECK_MSG(r.pos == bytes.size(),
                "trailing bytes after serialized waveform");
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

#include "solver/io.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/file_io.hpp"

namespace dgr::solver {

namespace {
constexpr std::uint64_t kMagic = 0x4447525F43505431ULL;  // "DGR_CPT1"
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kLeafBytes = 3 * 4 + 1;  // x, y, z as u32, level
constexpr std::size_t kDofBytes = std::size_t(bssn::kNumVars) * sizeof(Real);
// Far above any mesh this library builds; refused before it is read.
constexpr std::size_t kMaxCheckpointBytes = std::size_t{1} << 36;
}  // namespace

void save_checkpoint(const std::string& path, const mesh::Mesh& mesh,
                     const bssn::BssnState& state, Real time,
                     std::uint64_t step) {
  DGR_CHECK(state.num_dofs() == mesh.num_dofs());
  const auto& leaves = mesh.tree().leaves();
  ByteWriter head(8 + 4 + 3 * 8 + 8 + leaves.size() * kLeafBytes + 8);
  head.u64(kMagic).u32(kVersion).real(mesh.domain().half_extent);
  head.real(time).u64(step).u64(leaves.size());
  for (const auto& t : leaves) head.u32(t.x).u32(t.y).u32(t.z).u8(t.level);
  head.u64(mesh.num_dofs());
  // The 24 fields are one contiguous buffer, written in place.
  const std::string_view fields(reinterpret_cast<const char*>(state.field(0)),
                                mesh.num_dofs() * kDofBytes);
  DGR_CHECK_MSG(write_file_atomic(path, {head.bytes(), fields}),
                "cannot write checkpoint: " + path);
}

Checkpoint load_checkpoint(const std::string& path) {
  const std::string file = read_file(path, kMaxCheckpointBytes);
  ByteReader r(file, "DGR_CPT1 checkpoint");
  DGR_CHECK_MSG(r.u64() == kMagic, "not a dendrite-gr checkpoint: " + path);
  DGR_CHECK_MSG(r.u32() == kVersion, "unsupported checkpoint version");

  Checkpoint cp;
  cp.domain.half_extent = r.real();
  cp.time = r.real();
  cp.step = r.u64();
  DGR_CHECK_MSG(std::isfinite(cp.domain.half_extent) &&
                    cp.domain.half_extent > 0 && std::isfinite(cp.time),
                "corrupt checkpoint domain or time: " + path);
  const std::size_t nleaves = r.count(kLeafBytes);
  std::vector<oct::TreeNode> leaves;
  leaves.reserve(nleaves);
  for (std::size_t i = 0; i < nleaves; ++i) {
    const oct::Coord x = r.u32(), y = r.u32(), z = r.u32();
    leaves.emplace_back(x, y, z, r.u8());
  }
  cp.tree = oct::Octree(std::move(leaves));  // validates, rejects 0 leaves

  // The field payload must account for every remaining byte.
  const std::size_t ndofs = r.count(kDofBytes);
  DGR_CHECK_MSG(ndofs >= 1, "corrupt checkpoint: no field payload: " + path);
  const std::string_view fields = r.raw(ndofs * kDofBytes);
  r.finish();
  cp.state.resize(ndofs);
  std::memcpy(cp.state.field(0), fields.data(), fields.size());
  return cp;
}

std::shared_ptr<mesh::Mesh> checkpoint_mesh(const Checkpoint& cp) {
  auto m = std::make_shared<mesh::Mesh>(cp.tree, cp.domain);
  DGR_CHECK_MSG(cp.state.num_dofs() == m->num_dofs(),
                "checkpoint fields inconsistent with its octree: "
                    << cp.state.num_dofs() << " dofs vs " << m->num_dofs());
  return m;
}

void write_vtk_points(const std::string& path, const mesh::Mesh& mesh,
                      const bssn::BssnState& state,
                      const std::vector<int>& vars) {
  DGR_CHECK(state.num_dofs() == mesh.num_dofs());
  std::ostringstream os;
  const std::size_t n = mesh.num_dofs();
  os << "# vtk DataFile Version 3.0\n"
     << "dendrite-gr snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n"
     << "POINTS " << n << " double\n";
  for (DofIndex d = 0; d < DofIndex(n); ++d) {
    const auto x = mesh.dof_position(d);
    os << x[0] << " " << x[1] << " " << x[2] << "\n";
  }
  os << "POINT_DATA " << n << "\n";
  for (int v : vars) {
    DGR_CHECK(v >= 0 && v < bssn::kNumVars);
    os << "SCALARS " << bssn::var_name(v) << " double 1\n"
       << "LOOKUP_TABLE default\n";
    const Real* f = state.field(v);
    for (std::size_t d = 0; d < n; ++d) os << f[d] << "\n";
  }
  DGR_CHECK_MSG(write_file_atomic(path, {os.view()}),
                "cannot write VTK file: " + path);
}

}  // namespace dgr::solver

#pragma once
/// \file io.hpp
/// \brief Checkpoint/restart and visualization output. Production NR runs
/// last days to weeks (Table IV), so restartable state is part of the
/// system: a checkpoint stores the octree, domain, time/step counters and
/// all 24 zipped fields in a versioned binary format. VTK legacy output
/// (point cloud with per-DOF scalars) loads directly in ParaView/VisIt.

#include <memory>
#include <string>

#include "bssn/state.hpp"
#include "mesh/mesh.hpp"

namespace dgr::solver {

struct Checkpoint {
  oct::Octree tree;
  oct::Domain domain;
  Real time = 0;
  std::uint64_t step = 0;
  bssn::BssnState state;
};

/// Write a checkpoint with dgr::write_file_atomic (the state's field buffer
/// in place, not copied); throws dgr::Error on I/O failure. A crash or
/// error mid-write never corrupts an existing checkpoint at `path`.
void save_checkpoint(const std::string& path, const mesh::Mesh& mesh,
                     const bssn::BssnState& state, Real time,
                     std::uint64_t step);

/// Read a checkpoint written by save_checkpoint; validates magic, version,
/// and structural consistency. The file is read whole (dgr::read_file) and
/// parsed with dgr::ByteReader, so truncated or garbage files fail with a
/// clean dgr::Error before any oversized allocation or partial state can
/// escape: every count is checked against the bytes left before it is
/// allocated. A restart holds the file and the state: twice the fields.
Checkpoint load_checkpoint(const std::string& path);

/// Rebuild the mesh a checkpoint was taken on (deterministic from the
/// stored tree + domain) and cross-check the stored field sizes against it;
/// throws dgr::Error on mismatch. This is the restart entry point: the
/// returned mesh carries the exact DOF layout the fields were saved in.
std::shared_ptr<mesh::Mesh> checkpoint_mesh(const Checkpoint& cp);

/// Write selected variables of a zipped state as a legacy-VTK point cloud
/// (POINTS + POINT_DATA scalars), one scalar array per variable.
void write_vtk_points(const std::string& path, const mesh::Mesh& mesh,
                      const bssn::BssnState& state,
                      const std::vector<int>& vars);

}  // namespace dgr::solver

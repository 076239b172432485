#pragma once
/// \file file_io.hpp
/// \brief The one way whole files are written and read (checkpoints, VTK
/// snapshots, spill files, metrics and trace JSON, flight-recorder dumps,
/// bench reports), so atomicity and size bounds are decided here. Only the
/// flight recorder's crash handler writes with open(2)/write(2) itself, to
/// stay async-signal-safe.

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>

namespace dgr {

/// Write the concatenated `parts` to this call's own temp file,
/// `<path>.tmp.<pid>.<n>`, flush, check the close and rename it onto
/// `path`, so `path` holds its old content or all of one writer's new
/// content, never a torn write, also with concurrent writers. On failure
/// the temp file is removed, `path` is untouched and the result is false.
/// No fsync: a write survives a crash of the process, not of the machine.
bool write_file_atomic(const std::string& path,
                       std::initializer_list<std::string_view> parts);

/// The whole of `path`. Throws dgr::Error naming the path when it cannot be
/// opened, is not a regular file, holds more than `max_bytes` (checked
/// before anything is allocated) or reads back short.
std::string read_file(const std::string& path, std::size_t max_bytes);

}  // namespace dgr

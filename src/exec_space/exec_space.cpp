#include "exec_space/exec_space.hpp"

namespace dgr::exec_space {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kSerial: return "serial";
    case Backend::kPool: return "pool";
    case Backend::kSimGpu: return "simgpu";
  }
  return "unknown";
}

}  // namespace dgr::exec_space

#include "common/page_array.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace dgr::page_map {

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

std::size_t rounded(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

void* map(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  const std::size_t len = rounded(bytes);
  void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  DGR_CHECK_MSG(p != MAP_FAILED, "mmap of " << bytes
                                            << " bytes failed: "
                                            << std::strerror(errno));
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(p) + bytes, len - bytes);
#endif
  const std::size_t live = g_live.fetch_add(bytes) + bytes;
  std::size_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void unmap(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  const std::size_t len = rounded(bytes);
#if defined(__SANITIZE_ADDRESS__)
  // The shadow outlives the mapping: a later mapping at this address must
  // not inherit the poisoned tail.
  ASAN_UNPOISON_MEMORY_REGION(p, len);
#endif
  munmap(p, len);
  g_live.fetch_sub(bytes);
}

std::size_t live_bytes() { return g_live.load(); }
std::size_t peak_bytes() { return g_peak.load(); }

}  // namespace dgr::page_map

#include "common/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"

namespace dgr {

bool write_file_atomic(const std::string& path,
                       std::initializer_list<std::string_view> parts) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  bool ok = true;
  for (std::string_view p : parts)
    ok = ok && std::fwrite(p.data(), 1, p.size(), f) == p.size();
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

std::string read_file(const std::string& path, std::size_t max_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  DGR_CHECK_MSG(fd >= 0,
                "cannot open " << path << ": " << std::strerror(errno));
  const struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st {};
  DGR_CHECK_MSG(::fstat(fd, &st) == 0 && S_ISREG(st.st_mode),
                path << " is not a readable regular file");
  const auto size = static_cast<std::size_t>(st.st_size);
  DGR_CHECK_MSG(size <= max_bytes,
                path << " holds " << size << " bytes, over " << max_bytes);
  std::string out(size, '\0');
  for (std::size_t got = 0; got < size;) {
    const ssize_t n = ::read(fd, out.data() + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    DGR_CHECK_MSG(n > 0, path << " read back short: " << got << " of " << size);
    got += static_cast<std::size_t>(n);
  }
  return out;
}

}  // namespace dgr

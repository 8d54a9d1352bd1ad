#include "util/file.h"

#include <cstdio>
#include <memory>

namespace bp::util {

bool write_file(const std::string& path, std::string_view contents) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) return false;
  if (!contents.empty() &&
      std::fwrite(contents.data(), 1, contents.size(), f.get()) !=
          contents.size()) {
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) return false;
  out.clear();
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    out.append(buf, n);
  }
  return std::ferror(f.get()) == 0;
}

}  // namespace bp::util

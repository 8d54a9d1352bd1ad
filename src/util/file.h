// Whole-file read and write, for model persistence (core/model_io).
#pragma once

#include <string>
#include <string_view>

namespace bp::util {

// Write / read a whole file.  Return false on IO error.
bool write_file(const std::string& path, std::string_view contents);
bool read_file(const std::string& path, std::string& out);

}  // namespace bp::util

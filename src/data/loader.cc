#include "data/loader.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace numdist {

namespace {

// Extracts the `column`-th delimiter-separated field of `line`.
// Returns false if the line has too few fields.
bool ExtractField(const std::string& line, size_t column, char delimiter,
                  std::string* field) {
  size_t start = 0;
  for (size_t c = 0; c < column; ++c) {
    const size_t pos = line.find(delimiter, start);
    if (pos == std::string::npos) return false;
    start = pos + 1;
  }
  const size_t end = line.find(delimiter, start);
  *field = line.substr(start, end == std::string::npos ? std::string::npos
                                                       : end - start);
  return true;
}

}  // namespace

Result<std::vector<double>> ParseNumericColumn(const std::string& text,
                                               const LoadOptions& options) {
  if (!(options.max_value > options.min_value)) {
    return Status::InvalidArgument("loader: max_value must exceed min_value");
  }
  std::vector<double> values;
  std::istringstream stream(text);
  std::string line;
  bool first = true;
  const double span = options.max_value - options.min_value;
  while (std::getline(stream, line)) {
    if (first && options.skip_header) {
      first = false;
      continue;
    }
    first = false;
    if (line.empty()) continue;
    std::string field;
    if (!ExtractField(line, options.column, options.delimiter, &field)) {
      continue;
    }
    char* end = nullptr;
    const double raw = std::strtod(field.c_str(), &end);
    if (end == field.c_str()) continue;  // not numeric
    // Written to fail for NaN, which compares false both ways.
    if (!(raw >= options.min_value && raw < options.max_value)) continue;
    values.push_back((raw - options.min_value) / span);
  }
  if (values.empty()) {
    return Status::InvalidArgument("loader: no numeric values in range");
  }
  return values;
}

Result<std::vector<double>> LoadNumericFile(const std::string& path,
                                            const LoadOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::InvalidArgument("loader: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseNumericColumn(buffer.str(), options);
}

}  // namespace numdist

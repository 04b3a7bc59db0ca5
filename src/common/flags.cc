#include "common/flags.h"

#include <charconv>
#include <cmath>

namespace numdist {

Result<double> ParseFinite(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return Status::InvalidArgument(std::string("'").append(text) +
                                   "' is not a finite number");
  }
  return value;
}

std::vector<std::string_view> SplitList(std::string_view text, char sep) {
  std::vector<std::string_view> items;
  size_t start = 0;
  for (size_t end; (end = text.find(sep, start)) != std::string_view::npos;
       start = end + 1) {
    items.push_back(text.substr(start, end - start));
  }
  items.push_back(text.substr(start));
  return items;
}

Flag::Flag(std::string_view name, std::string* out)
    : Flag(name, [out](std::string_view value) {
        out->assign(value);
        return Status::OK();
      }) {}
Flag::Flag(std::string_view name, double* out)
    : Flag(name, [out](std::string_view value) -> Status {
        NUMDIST_ASSIGN_OR_RETURN(*out, ParseFinite(value));
        return Status::OK();
      }) {}

Status ParseFlags(int argc, char** argv, std::initializer_list<Flag> table) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const bool valued = eq != std::string_view::npos;
    const std::string name(arg.substr(0, eq));
    bool known = false;
    const Flag* match = nullptr;
    for (const Flag& flag : table) {
      if (flag.name != name) continue;
      known = true;
      if ((flag.on == nullptr) == valued) match = &flag;
    }
    if (match == nullptr) {
      return Status::InvalidArgument(
          !known   ? "unknown flag '" + std::string(arg) + "'"
          : valued ? name + " is a switch and takes no value"
                   : name + " needs a value: " + name + "=...");
    }
    if (!valued) {
      *match->on = true;
      continue;
    }
    const Status parsed = match->handler(arg.substr(eq + 1));
    if (!parsed.ok()) {
      return Status(parsed.code(), name + ": " + parsed.message());
    }
  }
  return Status::OK();
}

}  // namespace numdist

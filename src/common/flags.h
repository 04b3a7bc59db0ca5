// Strict number and flag parsing, the one way the tools, the benches and
// the text formats (scenario files, method names, endpoints) read a
// number: a value is taken whole by std::from_chars or refused with a
// typed error, never read as 0, wrapped or saturated.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.h"

namespace numdist {

/// Parses all of `text` as a decimal integer in [0, max]: no sign, space,
/// base prefix, exponent or trailing byte ("-0", "+1", " 1", "0x10", "1e3").
/// Inline, so the wire and net layers, which read bin counts and ports with
/// it, do not link the rest of this file into the collector.
inline Result<uint64_t> ParseUint(
    std::string_view text,
    uint64_t max = std::numeric_limits<uint64_t>::max()) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::invalid_argument || ptr != end) {
    return Status::InvalidArgument(std::string("'").append(text) +
                                   "' is not an unsigned integer");
  }
  if (ec == std::errc::result_out_of_range || value > max) {
    return Status::InvalidArgument(std::string("'").append(text) +
                                   "' is above " + std::to_string(max));
  }
  return value;
}

/// Parses all of `text` as a finite decimal number, rounded as strtod
/// rounds it. "inf", "nan", a leading '+', trailing bytes and values past
/// the double range either way ("1e400", "1e-400") are refused.
Result<double> ParseFinite(std::string_view text);

/// Splits `text` at every `sep`, keeping empty items ("" is one item). The
/// items view `text`: copy them out before it dies.
std::vector<std::string_view> SplitList(std::string_view text,
                                        char sep = ',');

/// A ParseFlags table entry: a name such as "--seed" bound to a bare switch
/// or to a `--name=VALUE` handler. A name may be both (`--merge`).
struct Flag {
  /// Parses and stores a value; ParseFlags prefixes its error with `name`.
  using Handler = std::function<Status(std::string_view value)>;

  Flag(std::string_view name, bool* on) : name(name), on(on) {}
  /// A string (the empty one included) or a finite double (ParseFinite).
  Flag(std::string_view name, std::string* out);
  Flag(std::string_view name, double* out);
  /// An integer up to its type's max (ParseUint).
  template <typename T>
    requires std::is_integral_v<T> && (!std::is_same_v<T, bool>) &&
             (!std::is_same_v<T, char>)
  Flag(std::string_view name, T* out)
      : Flag(name, [out](std::string_view value) -> Status {
          NUMDIST_ASSIGN_OR_RETURN(
              *out, ParseUint(value, std::numeric_limits<T>::max()));
          return Status::OK();
        }) {}
  /// Lists, enums and checked ranges.
  Flag(std::string_view name, Handler handler)
      : name(name), handler(std::move(handler)) {}

  std::string_view name;
  bool* on = nullptr;  // set for a switch
  Handler handler;     // set for a flag with a value
};

/// Applies argv[1..argc) to `table`, a repeated flag keeping its last
/// value. The first unknown flag, switch given a value, bare valued flag or
/// refused value is returned as a typed error naming the flag.
Status ParseFlags(int argc, char** argv, std::initializer_list<Flag> table);

}  // namespace numdist

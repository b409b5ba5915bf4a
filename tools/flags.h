// Command-line helpers shared by twq and twq_loadgen.  Numbers are
// parsed strictly: a malformed or out-of-range value is a usage error
// that names the flag, so the tool exits 1 before doing any work
// instead of reading `abc` as 0 the way atoi/atof would.

#ifndef TREEWALK_TOOLS_FLAGS_H_
#define TREEWALK_TOOLS_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "src/client/client.h"

namespace treewalk::cli {

/// Prefix of every error message ("twq", "twq_loadgen"); each binary
/// that includes this header defines it.
extern const char kToolName[];

/// Prints "<tool>: <message>" to stderr and returns exit status 1.
inline int Fail(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", kToolName, message.c_str());
  return 1;
}

/// Parses all of `text` as an unsigned base-10 integer in [lo, hi];
/// nullopt for anything else (empty, a sign or junk, trailing
/// characters, out of range).
inline std::optional<long long> ParseInteger(const char* text, long long lo,
                                             long long hi) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

/// Reads the value argv[i] of the numeric flag argv[i - 1] into `out`.
/// A value that is not an integer in [lo, hi] prints a usage error
/// naming the flag and returns false; the caller exits nonzero.
template <typename T>
bool IntFlag(char** argv, int i, T* out, long long lo = 0,
             long long hi = std::numeric_limits<T>::max()) {
  const std::optional<long long> value = ParseInteger(argv[i], lo, hi);
  if (!value.has_value()) {
    Fail(std::string(argv[i - 1]) + " wants an integer in [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
         argv[i] + "'");
    return false;
  }
  *out = static_cast<T>(*value);
  return true;
}

/// IntFlag for an unsigned decimal number (`2`, `0.5`, `1e3`) in
/// [lo, hi], read by a strtod that must consume all of it; a sign,
/// `inf` and `nan` are refused.
inline bool NumberFlag(char** argv, int i, double* out, double lo,
                       double hi) {
  const char* text = argv[i];
  const bool unsigned_number =
      std::isdigit(static_cast<unsigned char>(text[0])) || text[0] == '.';
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (!unsigned_number || errno != 0 || *end != '\0' ||
      !(value >= lo && value <= hi)) {
    char range[64];
    std::snprintf(range, sizeof range, "[%g, %g]", lo, hi);
    Fail(std::string(argv[i - 1]) + " wants a number in " + range +
         ", got '" + text + "'");
    return false;
  }
  *out = value;
  return true;
}

/// Parses `HOST:PORT` (`:PORT` means 127.0.0.1), port in [1, 65535].
inline bool ParseEndpoint(const std::string& spec, Endpoint* out) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) return false;
  const std::optional<long long> port =
      ParseInteger(spec.c_str() + colon + 1, 1, 65535);
  if (!port.has_value()) return false;
  out->host = colon == 0 ? "127.0.0.1" : spec.substr(0, colon);
  out->port = static_cast<int>(*port);
  return true;
}

}  // namespace treewalk::cli

#endif  // TREEWALK_TOOLS_FLAGS_H_

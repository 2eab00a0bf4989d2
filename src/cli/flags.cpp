#include "cli/flags.hpp"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "support/error.hpp"

namespace lazymc::cli {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw Error(ErrorKind::kInput, what);
}

/// An integer in [0, max], or Error(kInput) with `expects` in the message.
std::uint64_t parse_integer(const std::string& flag, const std::string& v,
                            std::uint64_t max, const std::string& expects) {
  errno = 0;
  char* end = nullptr;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE || n < 0 ||
      static_cast<std::uint64_t>(n) > max) {
    fail(flag + " expects " + expects + ", got '" + v + "'");
  }
  return static_cast<std::uint64_t>(n);
}

}  // namespace

std::size_t parse_count(const std::string& flag, const std::string& value) {
  return static_cast<std::size_t>(
      parse_integer(flag, value, std::numeric_limits<int>::max(),
                    "a non-negative integer"));
}

double parse_seconds(const std::string& flag, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      !(x > 0) || !std::isfinite(x)) {
    fail(flag + " expects a positive number of seconds, got '" + value +
         "'");
  }
  return x;
}

VertexId parse_vertex_id(const std::string& flag, const std::string& value) {
  constexpr VertexId kMax = std::numeric_limits<VertexId>::max();
  return static_cast<VertexId>(parse_integer(
      flag, value, kMax,
      "an integer from 0 to " + std::to_string(kMax)));
}

}  // namespace lazymc::cli

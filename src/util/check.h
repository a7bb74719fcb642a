// Contract-checking macros used across pstream360.
//
// PS360_CHECK validates preconditions on public API boundaries and throws
// std::invalid_argument; PS360_ASSERT guards internal invariants and throws
// std::logic_error. Both are always on: none of the checked paths are hot
// enough to justify compiling them out, and a reproduction codebase benefits
// from loud failure.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace ps360 {

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  throw std::invalid_argument(std::string("PS360_CHECK failed: ") + expr + " at " +
                              file + ":" + std::to_string(line) +
                              (msg.empty() ? "" : (" — " + msg)));
}

[[noreturn]] inline void throw_assert_failure(const char* expr, const char* file,
                                              int line, const std::string& msg) {
  throw std::logic_error(std::string("PS360_ASSERT failed: ") + expr + " at " +
                         file + ":" + std::to_string(line) +
                         (msg.empty() ? "" : (" — " + msg)));
}

}  // namespace detail

// Precondition check for arguments crossing a public API boundary.
#define PS360_CHECK(expr)                                                    \
  do {                                                                       \
    if (!(expr)) ::ps360::detail::throw_check_failure(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define PS360_CHECK_MSG(expr, msg)                                           \
  do {                                                                       \
    if (!(expr)) ::ps360::detail::throw_check_failure(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

// Internal invariant; failure indicates a bug in pstream360 itself.
#define PS360_ASSERT(expr)                                                   \
  do {                                                                       \
    if (!(expr)) ::ps360::detail::throw_assert_failure(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define PS360_ASSERT_MSG(expr, msg)                                          \
  do {                                                                       \
    if (!(expr)) ::ps360::detail::throw_assert_failure(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

// ceil(x) as a count of steps, where x is a duration over its step (or times
// a rate). Checks the precondition a static_cast leaves undefined: x must be
// finite and > 0 and its ceiling must fit std::size_t; otherwise throws
// std::invalid_argument naming `field`, the duration x came from.
inline std::size_t ceil_count(double x, const char* field) {
  const double count = std::ceil(x);
  PS360_CHECK_MSG(count > 0.0 && count < 0x1p64,
                  std::string(field) +
                      " must be finite and > 0, with a step count that fits std::size_t");
  return static_cast<std::size_t>(count);
}

}  // namespace ps360

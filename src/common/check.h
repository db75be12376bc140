// Checked assertions used throughout the library.
//
// PQS_CHECK fires in every build type (Release included): violated invariants
// in a numerical reproduction are bugs we want to see, not UB we want to hide.
// PQS_DCHECK compiles out in Release for hot kernels.
#pragma once

#include <cstddef>
#include <exception>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pqs {

/// Thrown by PQS_CHECK failures; what() carries the failed expression, the
/// file:line and the message.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}

  /// A failed check whose what() holds its source location at
  /// [location_begin, location_end) (" at file:line").
  CheckFailure(const std::string& what, std::size_t location_begin,
               std::size_t location_end)
      : std::logic_error(what),
        location_begin_(location_begin),
        location_end_(location_end) {}

 private:
  friend std::string wire_message(const std::exception& e);

  std::size_t location_begin_ = 0;
  std::size_t location_end_ = 0;
};

/// The text of `e` a peer may read (error events, failed results): a
/// CheckFailure's expression and message without its file:line, which moves
/// with every edit above the check; any other exception's what().
std::string wire_message(const std::exception& e);

namespace detail {
[[noreturn]] void check_failed(std::string_view expr, std::string_view message,
                               const std::source_location& loc);
}  // namespace detail

}  // namespace pqs

#define PQS_CHECK(expr)                                                        \
  do {                                                                         \
    if (!(expr)) {                                                             \
      ::pqs::detail::check_failed(#expr, "", std::source_location::current()); \
    }                                                                          \
  } while (false)

#define PQS_CHECK_MSG(expr, msg)                                                \
  do {                                                                          \
    if (!(expr)) {                                                              \
      ::pqs::detail::check_failed(#expr, (msg), std::source_location::current()); \
    }                                                                           \
  } while (false)

#ifdef NDEBUG
#define PQS_DCHECK(expr) \
  do {                   \
  } while (false)
#else
#define PQS_DCHECK(expr) PQS_CHECK(expr)
#endif

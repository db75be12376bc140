#include "common/check.h"

#include <sstream>

namespace pqs {

std::string wire_message(const std::exception& e) {
  std::string text = e.what();
  if (const auto* check = dynamic_cast<const CheckFailure*>(&e)) {
    text.erase(check->location_begin_,
               check->location_end_ - check->location_begin_);
  }
  return text;
}

namespace detail {

void check_failed(std::string_view expr, std::string_view message,
                  const std::source_location& loc) {
  std::ostringstream os;
  os << "PQS_CHECK failed: (" << expr << ")";
  const auto location_begin = static_cast<std::size_t>(os.tellp());
  os << " at " << loc.file_name() << ':' << loc.line();
  const auto location_end = static_cast<std::size_t>(os.tellp());
  if (!message.empty()) {
    os << " — " << message;
  }
  throw CheckFailure(os.str(), location_begin, location_end);
}

}  // namespace detail

}  // namespace pqs

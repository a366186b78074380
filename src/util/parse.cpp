#include "util/parse.hpp"

#include <cstdlib>
#include <iostream>
#include <string>

#include "util/require.hpp"

namespace wmsn {

std::string trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  const std::size_t last = s.find_last_not_of(" \t");
  return s.substr(first, last - first + 1);
}

std::vector<std::string> splitList(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(trim(s.substr(start)));
      return out;
    }
    out.push_back(trim(s.substr(start, pos - start)));
    start = pos + 1;
  }
}

namespace detail {

void numberParseFailed(std::string_view key, std::string_view text,
                       bool outOfRange, bool floating, bool isSigned,
                       std::size_t bits) {
  std::string kind = "number";
  if (!floating)
    kind = std::to_string(bits) +
           (isSigned ? "-bit integer" : "-bit unsigned integer");
  std::string message(key);
  message += ": ";
  if (outOfRange) {
    message += "'";
    message += text;
    message += "' is out of range for a " + kind;
  } else {
    message += "expected a " + kind + ", got '";
    message += text;
    message += "'";
  }
  throw PreconditionError(message);
}

void flagParseFailed(const char* message) {
  std::cerr << "error: " << message << "\n";
  std::exit(2);
}

}  // namespace detail

}  // namespace wmsn

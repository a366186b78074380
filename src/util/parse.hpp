#pragma once

#include <charconv>
#include <exception>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace wmsn {

namespace detail {
[[noreturn]] void numberParseFailed(std::string_view key, std::string_view text,
                                    bool outOfRange, bool floating,
                                    bool isSigned, std::size_t bits);
[[noreturn]] void flagParseFailed(const char* message);
}  // namespace detail

/// The one text-to-number parser: reads all of `text` as a T (an integer
/// type or double) with std::from_chars. No leading whitespace or '+', no
/// trailing characters, no '-' for an unsigned T, and the value must fit T.
/// Anything else throws PreconditionError naming `key` and `text`.
template <class T>
T parseNumber(std::string_view key, std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc{} && ptr == last) return value;
  detail::numberParseFailed(key, text, ec == std::errc::result_out_of_range,
                            std::is_floating_point_v<T>, std::is_signed_v<T>,
                            std::numeric_limits<T>::digits +
                                (std::is_signed_v<T> ? 1 : 0));
}

/// parseNumber for the value of a command-line `flag`: bad text prints the
/// message to stderr and exits with status 2, the usage-error status.
template <class T>
T parseFlag(std::string_view flag, std::string_view text) {
  try {
    return parseNumber<T>(flag, text);
  } catch (const std::exception& e) {
    detail::flagParseFailed(e.what());
  }
}

/// `s` without leading and trailing spaces and tabs.
std::string trim(const std::string& s);

/// Splits `s` at every `sep` and trims each piece; "" gives one empty piece.
std::vector<std::string> splitList(const std::string& s, char sep);

}  // namespace wmsn

// Cursor over the text of a saved model.
//
// Saved models are whitespace-separated tokens (DecisionTree::Write and the
// ensemble headers around it). The cursor reads them where they lie, with
// std::from_chars: no stream, no copy of the payload, no locale. Every read
// yields a whole token's value or throws ParseError, and a count is checked
// against the bytes left before anything is allocated for it — model files
// come from outside the program.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

#include "common/check.hpp"

namespace cordial::ml {

class TokenCursor {
 public:
  /// `text` must outlive the cursor.
  explicit TokenCursor(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// The next token; empty at the end of the text.
  std::string_view Token() {
    SkipSpace();
    const char* start = pos_;
    while (pos_ != end_ && !IsSpace(*pos_)) ++pos_;
    return {start, static_cast<std::size_t>(pos_ - start)};
  }

  /// Consumes the next token, which must equal `token`.
  void Expect(std::string_view token) {
    const std::string_view got = Token();
    if (got != token) {
      throw ParseError("model: expected '" + std::string(token) + "', got '" +
                       std::string(got) + "'");
    }
  }

  double Double(const char* what) { return Number<double>(what); }
  std::int64_t Int(const char* what) { return Number<std::int64_t>(what); }

  /// A count of items that take at least `tokens_each` tokens apiece. It
  /// must be non-negative and that many items must fit in the bytes left,
  /// at one character and one separator per token.
  std::size_t Count(const char* what, std::size_t tokens_each) {
    const std::int64_t n = Int(what);
    if (n < 0 ||
        static_cast<std::uint64_t>(n) > bytes_left() / (2 * tokens_each)) {
      throw ParseError(std::string(what) + ": count " + std::to_string(n) +
                       " does not fit in the " +
                       std::to_string(bytes_left()) + " bytes left");
    }
    return static_cast<std::size_t>(n);
  }

  std::size_t bytes_left() const {
    return static_cast<std::size_t>(end_ - pos_);
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }

  void SkipSpace() {
    while (pos_ != end_ && IsSpace(*pos_)) ++pos_;
  }

  template <typename T>
  T Number(const char* what) {
    SkipSpace();
    T value{};
    const auto [ptr, ec] = std::from_chars(pos_, end_, value);
    if (ec != std::errc() || (ptr != end_ && !IsSpace(*ptr))) {
      throw ParseError(std::string(what) + ": malformed number '" +
                       std::string(Token()) + "'");
    }
    pos_ = ptr;
    return value;
  }

  const char* pos_;
  const char* end_;
};

}  // namespace cordial::ml

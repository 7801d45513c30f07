#ifndef WSIE_COMMON_STRING_UTIL_H_
#define WSIE_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace wsie {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Splits `text` on any whitespace run, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view text);

/// ASCII lowercase copy.
std::string AsciiToLower(std::string_view text);

/// ASCII uppercase copy.
std::string AsciiToUpper(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if every character is an ASCII letter.
bool IsAllAlpha(std::string_view text);

/// True if every character is an ASCII uppercase letter.
bool IsAllUpper(std::string_view text);

/// True if the token contains at least one digit.
bool ContainsDigit(std::string_view text);

/// Replaces all occurrences of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

/// Formats a double with `digits` fractional digits.
std::string FormatDouble(double value, int digits);

/// Formats an integer with thousands separators ("4,233,523").
std::string FormatWithCommas(long long value);

/// Appends `text` to `out` as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, \n and \t use their short forms, and every other byte
/// below 0x20 becomes \u00XX. Bytes >= 0x80 pass through (UTF-8 stays UTF-8).
void AppendJsonString(std::string* out, std::string_view text);

}  // namespace wsie

#endif  // WSIE_COMMON_STRING_UTIL_H_

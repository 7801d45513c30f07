#include "common/string_util.h"

#include <cstdio>

#include "common/char_class.h"

namespace wsie {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsAsciiSpace(text[i]))
      ++i;
    size_t start = i;
    while (i < text.size() && !IsAsciiSpace(text[i]))
      ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         IsAsciiSpace(text[begin]))
    ++begin;
  size_t end = text.size();
  while (end > begin && IsAsciiSpace(text[end - 1]))
    --end;
  return text.substr(begin, end - begin);
}

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = AsciiLowerChar(c);
  return out;
}

std::string AsciiToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = AsciiUpperChar(c);
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiLowerChar(a[i]) != AsciiLowerChar(b[i])) return false;
  }
  return true;
}

bool IsAllAlpha(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!IsAsciiAlpha(c)) return false;
  }
  return true;
}

bool IsAllUpper(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!IsAsciiUpper(c)) return false;
  }
  return true;
}

bool ContainsDigit(std::string_view text) {
  for (char c : text) {
    if (IsAsciiDigit(c)) return true;
  }
  return false;
}

std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  size_t pos = 0;
  for (;;) {
    size_t hit = text.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(text.substr(pos));
      return out;
    }
    out.append(text.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FormatWithCommas(long long value) {
  std::string digits = std::to_string(value < 0 ? -value : value);
  std::string out;
  int count = 0;
  for (size_t i = digits.size(); i > 0; --i) {
    out.push_back(digits[i - 1]);
    if (++count % 3 == 0 && i > 1) out.push_back(',');
  }
  if (value < 0) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

void AppendJsonString(std::string* out, std::string_view text) {
  out->push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace wsie

#pragma once
// JSON string quoting shared by the obs exporters (obs/export.cpp,
// obs/jobtrace.cpp).

#include <cstdio>
#include <string>

namespace netsel::obs {

/// `s` as a JSON string literal: quote and backslash escaped, newline and
/// tab as \n and \t, other control characters as \u00XX.
inline std::string json_quoted(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace netsel::obs

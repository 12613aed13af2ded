#include "hexdump.h"

#include <cctype>
#include <cstdio>

namespace papm {

std::string hexdump(std::span<const u8> data, std::size_t max_bytes) {
  std::string out;
  const std::size_t n = std::min(data.size(), max_bytes);
  for (std::size_t row = 0; row < n; row += 16) {
    char line[80];
    std::snprintf(line, sizeof(line), "%08zx  ", row);
    out += line;
    for (std::size_t i = 0; i < 16; i++) {
      if (row + i < n) {
        std::snprintf(line, sizeof(line), "%02x ", data[row + i]);
        out += line;
      } else {
        out += "   ";
      }
      if (i == 7) out += ' ';
    }
    out += " |";
    for (std::size_t i = 0; i < 16 && row + i < n; i++) {
      const u8 c = data[row + i];
      out += std::isprint(c) ? static_cast<char>(c) : '.';
    }
    out += "|\n";
  }
  if (data.size() > max_bytes) out += "... (truncated)\n";
  return out;
}

}  // namespace papm

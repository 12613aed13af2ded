// Test helper: canonical hexdump of a byte range.
#pragma once

#include <span>
#include <string>

#include "common/types.h"

namespace papm {

// Renders e.g. "00000000  47 45 54 20 2f 6b 2f 61  ...  |GET /k/a|".
[[nodiscard]] std::string hexdump(std::span<const u8> data, std::size_t max_bytes = 256);

}  // namespace papm

// The two implementations behind rmiopt::crc32c, exposed only so a test
// can check that they agree.  Callers use crc32c() from crc32c.hpp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rmiopt::detail {

// Slicing-by-8 table implementation; runs on any CPU.
std::uint32_t crc32c_portable(const void* data, std::size_t len);

// True when this CPU has the SSE4.2 `crc32` instruction.
bool crc32c_hardware_available();

// The `crc32` instruction path.  Call only when
// crc32c_hardware_available() holds.
std::uint32_t crc32c_hardware(const void* data, std::size_t len);

}  // namespace rmiopt::detail

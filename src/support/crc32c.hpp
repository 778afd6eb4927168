// CRC-32C (Castagnoli): the frame checksum of the wire layer.
//
// Standard parameters — reflected polynomial 0x82F63B78, initial value
// and final xor 0xFFFFFFFF — so crc32c("123456789") == 0xE3069283 (the
// RFC 3720 check value).  CRC-32C detects every single-bit error and
// every burst of up to 32 bits by construction.
//
// On x86-64 CPUs with SSE4.2 the `crc32` instruction computes it eight
// bytes at a time; elsewhere a portable slicing-by-8 table does.  The
// choice is made once, at first use, and both paths compute the same
// function.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rmiopt {

std::uint32_t crc32c(const void* data, std::size_t len);

}  // namespace rmiopt

#include "support/crc32c.hpp"

#include <array>
#include <cstring>

#include "support/crc32c_detail.hpp"
#include "support/error.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RMIOPT_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace rmiopt {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

// kTable[0] is the byte-at-a-time table; kTable[k][b] advances the CRC of
// byte b followed by k zero bytes, so eight lookups consume eight bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) ? kPoly : 0u);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTable = make_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#ifdef RMIOPT_CRC32C_X86
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const unsigned char* p, std::size_t len) {
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto c = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++p, --len) c = _mm_crc32_u8(c, *p);
  return ~c;
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTable[7][lo & 0xFFu] ^ kTable[6][(lo >> 8) & 0xFFu] ^
          kTable[5][(lo >> 16) & 0xFFu] ^ kTable[4][lo >> 24] ^
          kTable[3][hi & 0xFFu] ^ kTable[2][(hi >> 8) & 0xFFu] ^
          kTable[1][(hi >> 16) & 0xFFu] ^ kTable[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) crc = kTable[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

bool crc32c_hardware_available() {
#ifdef RMIOPT_CRC32C_X86
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

std::uint32_t crc32c_hardware(const void* data, std::size_t len) {
  RMIOPT_CHECK(crc32c_hardware_available(),
               "crc32c_hardware called on a CPU without SSE4.2");
#ifdef RMIOPT_CRC32C_X86
  return crc32c_sse42(static_cast<const unsigned char*>(data), len);
#else
  (void)data;
  (void)len;
  return 0;
#endif
}

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t len) {
#ifdef RMIOPT_CRC32C_X86
  if (detail::crc32c_hardware_available()) {
    return crc32c_sse42(static_cast<const unsigned char*>(data), len);
  }
#endif
  return detail::crc32c_portable(data, len);
}

}  // namespace rmiopt

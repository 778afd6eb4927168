// Unit tests for support/crc32c: the standard check values, and agreement
// between the SSE4.2 instruction path, the slicing-by-8 table path and a
// bit-at-a-time reference on every length and alignment the table loop
// distinguishes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "support/crc32c.hpp"
#include "support/crc32c_detail.hpp"
#include "support/rng.hpp"

namespace rmiopt {
namespace {

// The definition, one bit at a time: no tables, no instruction.
std::uint32_t crc32c_reference(const std::uint8_t* p, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

std::vector<std::uint8_t> random_bytes(SplitMix64& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::uint8_t& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

TEST(Crc32c, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc32c(kCheck.data(), kCheck.size()), 0xE3069283u);
  EXPECT_EQ(detail::crc32c_portable(kCheck.data(), kCheck.size()),
            0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  EXPECT_EQ(detail::crc32c_portable(nullptr, 0), 0u);
}

// RFC 3720 appendix B.4 test vectors (32-byte iSCSI data patterns).
TEST(Crc32c, Rfc3720Vectors) {
  std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xFF), inc(32), dec(32);
  for (std::uint8_t i = 0; i < 32; ++i) {
    inc[i] = i;
    dec[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(crc32c(inc.data(), inc.size()), 0x46DD794Eu);
  EXPECT_EQ(crc32c(dec.data(), dec.size()), 0x113FDB5Cu);
}

TEST(Crc32c, HardwareMatchesTableForEveryLengthUpTo64) {
  if (!detail::crc32c_hardware_available()) {
    GTEST_SKIP() << "CPU lacks the SSE4.2 crc32 instruction";
  }
  SplitMix64 rng(0xC5C32C);
  const std::vector<std::uint8_t> buf = random_bytes(rng, 64);
  for (std::size_t len = 0; len <= 64; ++len) {
    const std::uint32_t table = detail::crc32c_portable(buf.data(), len);
    EXPECT_EQ(detail::crc32c_hardware(buf.data(), len), table) << len;
    EXPECT_EQ(crc32c_reference(buf.data(), len), table) << len;
  }
}

TEST(Crc32c, RandomBuffersAgreeAtEveryStartOffset) {
  SplitMix64 rng(0x4B1D);
  const bool hardware = detail::crc32c_hardware_available();
  for (int iter = 0; iter < 24; ++iter) {
    const std::size_t len = rng.next_below(4096 + 1);
    const std::vector<std::uint8_t> buf = random_bytes(rng, len + 8);
    for (std::size_t off = 0; off < 8; ++off) {
      const std::uint8_t* p = buf.data() + off;
      const std::uint32_t want = crc32c_reference(p, len);
      EXPECT_EQ(detail::crc32c_portable(p, len), want)
          << "len=" << len << " off=" << off;
      if (hardware) {
        EXPECT_EQ(detail::crc32c_hardware(p, len), want)
            << "len=" << len << " off=" << off;
      }
      EXPECT_EQ(crc32c(p, len), want) << "len=" << len << " off=" << off;
    }
  }
}

}  // namespace
}  // namespace rmiopt

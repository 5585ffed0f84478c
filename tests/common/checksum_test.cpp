// The contract of checksum64: every corruption the fault injector can
// make (one flipped byte of a delivered payload) changes the digest, the
// digest does not depend on the payload's alignment, and known inputs
// hash to pinned values on every platform.
#include "common/checksum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace dds {
namespace {

ByteBuffer random_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ByteBuffer out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

/// Byte i is (31 * i + 7) mod 256: a fixed input for known-answer digests.
ByteBuffer pattern_payload(std::size_t n) {
  ByteBuffer out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((31 * i + 7) & 0xFF);
  }
  return out;
}

TEST(Checksum64, EverySingleByteChangeChangesTheDigest) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 80; ++n) lengths.push_back(n);
  lengths.push_back(3035);  // one AISD sample: stripes, tail words and bytes
  const std::byte flips[] = {std::byte{0xFF}, std::byte{0x01},
                             std::byte{0x80}};
  for (const std::size_t n : lengths) {
    ByteBuffer payload = random_payload(n, 1000 + n);
    const std::uint64_t digest = checksum64(ByteSpan(payload));
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::byte flip : flips) {
        payload[i] ^= flip;
        EXPECT_NE(checksum64(ByteSpan(payload)), digest)
            << "length " << n << " offset " << i << " flip "
            << std::to_integer<int>(flip);
        payload[i] ^= flip;
      }
    }
  }
}

TEST(Checksum64, FlippingBit63OfAnyTwoWordsChangesTheDigest) {
  // Rejects the plain word loop h = (h ^ w) * P: flipping bit 63 of a word
  // moves its product by 2^63 * P == 2^63 mod 2^64, so two such flips
  // cancel.  Bit 63 of little-endian word k is the top bit of byte 8k + 7.
  ByteBuffer payload = random_payload(3072, 7);
  const std::uint64_t digest = checksum64(ByteSpan(payload));
  for (std::size_t a = 0; a < 16; ++a) {
    for (std::size_t b = a + 1; b < 16; ++b) {
      payload[8 * a + 7] ^= std::byte{0x80};
      payload[8 * b + 7] ^= std::byte{0x80};
      EXPECT_NE(checksum64(ByteSpan(payload)), digest)
          << "words " << a << " and " << b;
      payload[8 * a + 7] ^= std::byte{0x80};
      payload[8 * b + 7] ^= std::byte{0x80};
    }
  }
}

TEST(Checksum64, DigestDoesNotDependOnBufferAlignment) {
  for (const std::size_t n : {0u, 1u, 7u, 8u, 31u, 32u, 33u, 80u, 3035u}) {
    const ByteBuffer payload = random_payload(n, 2000 + n);
    const std::uint64_t digest = checksum64(ByteSpan(payload));
    ByteBuffer buffer(n + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      std::copy(payload.begin(), payload.end(), buffer.begin() + offset);
      EXPECT_EQ(checksum64(ByteSpan(buffer).subspan(offset, n)), digest)
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(Checksum64, RunsOfZeroBytesHashByLength) {
  std::set<std::uint64_t> digests;
  for (std::size_t n = 0; n <= 96; ++n) {
    const ByteBuffer zeros(n);
    const std::uint64_t digest = checksum64(ByteSpan(zeros));
    EXPECT_NE(digest, 0u);
    EXPECT_TRUE(digests.insert(digest).second) << "length " << n;
  }
}

TEST(Checksum64, KnownAnswers) {
  // Pinned so that a change to the function is deliberate and a platform
  // that hashes differently fails here rather than at verify time.
  EXPECT_EQ(checksum64(ByteSpan(pattern_payload(0))),
            0xEF46DB3751D8E999ULL);
  EXPECT_EQ(checksum64(ByteSpan(pattern_payload(1))),
            0x440135B5942EF92BULL);
  EXPECT_EQ(checksum64(ByteSpan(pattern_payload(31))),
            0x92315690B5B70956ULL);
  EXPECT_EQ(checksum64(ByteSpan(pattern_payload(32))),
            0x25CE78B54369C34AULL);
  EXPECT_EQ(checksum64(ByteSpan(pattern_payload(33))),
            0x9F8DC30982D956E9ULL);
  EXPECT_EQ(checksum64(ByteSpan(pattern_payload(3072))),
            0xC3399F45CC318202ULL);
}

}  // namespace
}  // namespace dds

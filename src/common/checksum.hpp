// Sample payload checksums.
//
// The Data Registry stores a 64-bit checksum per sample, computed once at
// preload time and verified on every fetch, so that a corrupted RMA
// transfer (or a bad chunk byte) is detected before the sample reaches the
// trainer.  Collision resistance against an adversary is not a goal: this
// guards against transport/memory corruption, not tampering.
//
// checksum64 reads the payload as little-endian 8-byte words, four
// independent lanes to a 32-byte stripe, so the lanes' multiplies overlap
// in the pipeline and portable scalar code runs at several GB/s.  After
// the last stripe it folds the remaining whole words, then the remaining
// bytes, one at a time; it then mixes in the length and finishes with a
// xor-shift-multiply avalanche.
//
// Why a corrupted byte is always caught: every step is a bijection of
// each input while the others stay fixed, because odd multipliers,
// additions, xors, rotations and xor-shifts are all invertible.  A lane
// round rotl(acc + w * P2, 31) * P1 is one in the word and in the lane
// state; the lane chain (h ^ v) * P1 and each tail step are one in h and
// in their lane, word or byte; each avalanche step is one in h.  So any
// change confined to one 8-byte word changes the digest.  The rotation is
// what keeps two-word changes from cancelling structurally: the plain
// word loop h = (h ^ w) * P cancels whenever bit 63 of two words flips,
// because 2^63 * P == 2^63 mod 2^64.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/bytes.hpp"

namespace dds {

namespace detail {

inline constexpr std::uint64_t kHashP1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kHashP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kHashP3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kHashP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kHashP5 = 0x27D4EB2F165667C5ULL;

/// The 8 bytes at `p` as a little-endian word on every platform.
inline std::uint64_t load_le64(const std::byte* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t swapped = 0;
    for (int i = 0; i < 8; ++i) {
      swapped = (swapped << 8) | ((w >> (8 * i)) & 0xFF);
    }
    w = swapped;
  }
  return w;
}

/// One lane step over word `w`.
inline std::uint64_t hash_round(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * kHashP2, 31) * kHashP1;
}

}  // namespace detail

/// 64-bit digest of a byte range, identical on every platform.  Never
/// returns 0: the registry uses 0 to mean "no checksum recorded", so a
/// payload whose digest would be 0 gets kHashP5 instead.  That makes
/// digests 0 and kHashP5 collide, the one case the bijection argument
/// above does not cover.
inline std::uint64_t checksum64(ByteSpan bytes) {
  using detail::hash_round;
  using detail::kHashP1;
  using detail::kHashP2;
  using detail::kHashP3;
  using detail::kHashP4;
  using detail::kHashP5;
  const std::byte* p = bytes.data();
  const std::byte* const end = p + bytes.size();
  std::uint64_t h = kHashP5;
  if (end - p >= 32) {
    std::uint64_t v0 = kHashP1 + kHashP2;
    std::uint64_t v1 = kHashP2;
    std::uint64_t v2 = 0;
    std::uint64_t v3 = 0 - kHashP1;
    for (; end - p >= 32; p += 32) {
      v0 = hash_round(v0, detail::load_le64(p));
      v1 = hash_round(v1, detail::load_le64(p + 8));
      v2 = hash_round(v2, detail::load_le64(p + 16));
      v3 = hash_round(v3, detail::load_le64(p + 24));
    }
    h = (h ^ v0) * kHashP1;
    h = (h ^ v1) * kHashP1;
    h = (h ^ v2) * kHashP1;
    h = (h ^ v3) * kHashP1;
  }
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ hash_round(0, detail::load_le64(p)), 27) * kHashP1 +
        kHashP4;
  }
  for (; p != end; ++p) {
    h = std::rotl(h ^ std::to_integer<std::uint64_t>(*p) * kHashP5, 11) *
        kHashP1;
  }
  h ^= static_cast<std::uint64_t>(bytes.size());
  h ^= h >> 33;
  h *= kHashP2;
  h ^= h >> 29;
  h *= kHashP3;
  h ^= h >> 32;
  return h == 0 ? kHashP5 : h;
}

}  // namespace dds

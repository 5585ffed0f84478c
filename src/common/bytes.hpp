// Byte-buffer and binary (de)serialization primitives.
//
// All serialized formats in this repository (graph samples, PFF objects,
// CFF containers) are little-endian, fixed-width encodings built on
// BinaryWriter / BinaryReader.  The reader validates bounds and throws
// dds::DataError on truncation, so corrupt containers fail loudly.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace dds {

/// Owning, growable byte buffer used as the unit of storage everywhere.
using ByteBuffer = std::vector<std::byte>;

/// Non-owning read-only view over bytes.
using ByteSpan = std::span<const std::byte>;

/// Non-owning mutable view over bytes.
using MutableByteSpan = std::span<std::byte>;

template <typename T>
concept TriviallySerializable =
    std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>;

/// True when [offset, offset + len) lies inside `size` bytes.  Unlike
/// `offset + len <= size`, it cannot wrap: an offset near 2^64 fails.
constexpr bool range_within(std::uint64_t offset, std::uint64_t len,
                            std::uint64_t size) {
  return offset <= size && len <= size - offset;
}

/// Appends fixed-width little-endian values to a ByteBuffer.
class BinaryWriter {
 public:
  explicit BinaryWriter(ByteBuffer& out) : out_(out) {}

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  template <TriviallySerializable T>
  void write(const T& value) {
    // Grow by insert()'s own rule, size + max(size, n), before inserting:
    // the capacities (and so the heap footprint) stay insert()'s, and GCC
    // 12 at -O3 no longer reports a false -Wstringop-overflow for a first
    // insert into an empty buffer.
    const std::size_t size = out_.size();
    if (out_.capacity() - size < sizeof(T)) {
      out_.reserve(size + (size > sizeof(T) ? size : sizeof(T)));
    }
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    out_.insert(out_.end(), p, p + sizeof(T));
  }

  void write_bytes(ByteSpan bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  void write_string(std::string_view s) {
    write<std::uint64_t>(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    out_.insert(out_.end(), p, p + s.size());
  }

  /// Writes a length-prefixed vector of trivially copyable elements.
  template <TriviallySerializable T>
  void write_vector(const std::vector<T>& v) {
    write<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    out_.insert(out_.end(), p, p + v.size() * sizeof(T));
  }

  std::size_t bytes_written() const { return out_.size(); }

 private:
  ByteBuffer& out_;
};

/// Reads fixed-width little-endian values from a ByteSpan with bounds checks.
class BinaryReader {
 public:
  explicit BinaryReader(ByteSpan data) : data_(data) {}

  template <TriviallySerializable T>
  T read() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string read_string() {
    const auto n = read<std::uint64_t>();
    if (n > data_.size() - pos_) {
      throw DataError("BinaryReader: string length " + std::to_string(n) +
                      " exceeds remaining input");
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <TriviallySerializable T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint64_t>();
    // Guard the multiplication: a corrupt length must not overflow into a
    // small byte count (and must fail before attempting a huge allocation).
    if (n > (data_.size() - pos_) / sizeof(T)) {
      throw DataError("BinaryReader: vector length " + std::to_string(n) +
                      " exceeds remaining input");
    }
    std::vector<T> v(n);
    if (n != 0) std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  ByteSpan read_bytes(std::size_t n) {
    require(n);
    ByteSpan s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw DataError("BinaryReader: truncated input (need " +
                      std::to_string(n) + " bytes at offset " +
                      std::to_string(pos_) + ", have " +
                      std::to_string(data_.size() - pos_) + ")");
    }
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
};

/// Convenience: view the raw bytes of a trivially copyable value.
template <TriviallySerializable T>
ByteSpan as_bytes_of(const T& value) {
  return ByteSpan(reinterpret_cast<const std::byte*>(&value), sizeof(T));
}

}  // namespace dds

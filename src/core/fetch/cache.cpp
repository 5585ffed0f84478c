#include "core/fetch/cache.hpp"

#include <bit>
#include <cstring>

namespace dds::core::fetch {

namespace {

std::unique_ptr<std::byte[]> copy_of(ByteSpan bytes) {
  auto out = std::make_unique_for_overwrite<std::byte[]>(bytes.size());
  if (!bytes.empty()) std::memcpy(out.get(), bytes.data(), bytes.size());
  return out;
}

}  // namespace

std::size_t SampleCache::home_of(std::uint64_t id) const {
  // Fibonacci hashing: the top bits of id * 2^64/phi spread consecutive
  // ids (a chunk's storage order) evenly over the table.
  return static_cast<std::size_t>((id * 0x9E37'79B9'7F4A'7C15ull) >> shift_);
}

std::size_t SampleCache::slot_of(std::uint64_t id) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_of(id);
  while (slots_[i] != kNone && nodes_[slots_[i]].id != id) i = (i + 1) & mask;
  return i;
}

void SampleCache::erase_slot(std::size_t hole) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j] != kNone;
       j = (j + 1) & mask) {
    // The entry at j may move into the hole iff its probe from its home
    // slot passes through the hole: the hole is no farther from j than
    // its home is.
    const std::size_t home = home_of(nodes_[slots_[j]].id);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kNone;
}

void SampleCache::grow_table() {
  const std::size_t size = slots_.empty() ? 16 : 2 * slots_.size();
  slots_.assign(size, kNone);
  shift_ = 64 - std::countr_zero(size);
  for (std::uint32_t n = mru_; n != kNone; n = nodes_[n].next) {
    slots_[slot_of(nodes_[n].id)] = n;
  }
}

void SampleCache::unlink(std::uint32_t n) {
  Node& node = nodes_[n];
  (node.prev == kNone ? mru_ : nodes_[node.prev].next) = node.next;
  (node.next == kNone ? lru_ : nodes_[node.next].prev) = node.prev;
}

void SampleCache::push_front(std::uint32_t n) {
  Node& node = nodes_[n];
  node.prev = kNone;
  node.next = mru_;
  (mru_ == kNone ? lru_ : nodes_[mru_].prev) = n;
  mru_ = n;
}

void SampleCache::evict_lru() {
  const std::uint32_t n = lru_;
  Node& victim = nodes_[n];
  size_ -= victim.length;
  --entries_;
  erase_slot(slot_of(victim.id));
  unlink(n);
  victim.bytes.reset();
  victim.next = free_;
  free_ = n;
}

std::optional<ByteSpan> SampleCache::lookup(std::uint64_t id) {
  if (slots_.empty()) return std::nullopt;
  const std::uint32_t n = slots_[slot_of(id)];
  if (n == kNone) return std::nullopt;
  if (n != mru_) {
    unlink(n);
    push_front(n);
  }
  return ByteSpan(nodes_[n].bytes.get(), nodes_[n].length);
}

std::size_t SampleCache::insert(std::uint64_t id, ByteSpan bytes) {
  if (bytes.size() > capacity_) return 0;
  if (2 * (entries_ + 1) > slots_.size()) grow_table();
  const std::size_t slot = slot_of(id);
  std::uint32_t n = slots_[slot];
  if (n != kNone) {
    Node& node = nodes_[n];
    size_ -= node.length;
    node.bytes = copy_of(bytes);
    node.length = bytes.size();
    unlink(n);
  } else {
    if (free_ != kNone) {
      n = free_;
      free_ = nodes_[n].next;
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& node = nodes_[n];
    node.id = id;
    node.bytes = copy_of(bytes);
    node.length = bytes.size();
    slots_[slot] = n;
    ++entries_;
  }
  size_ += bytes.size();
  push_front(n);
  std::size_t evicted = 0;
  while (size_ > capacity_) {
    evict_lru();
    ++evicted;
  }
  return evicted;
}

std::vector<std::uint64_t> SampleCache::ids_mru_to_lru() const {
  std::vector<std::uint64_t> out;
  out.reserve(entries_);
  for (std::uint32_t n = mru_; n != kNone; n = nodes_[n].next) {
    out.push_back(nodes_[n].id);
  }
  return out;
}

}  // namespace dds::core::fetch

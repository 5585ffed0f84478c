// Cache stage: a per-rank LRU byte cache of hot sample payloads.
//
// Atompack-style node-local caching for read-heavy GNN training: a sample
// fetched once over RMA is kept (verified bytes only) so a repeated shuffle
// hit is served from local memory before any lock epoch.  The stage is
// fully deterministic — recency order is a pure function of the lookup /
// insert sequence, which for a fixed sampler seed is identical run to run
// and independent of the replication width (cache keys are sample ids, not
// owners).
//
// Stage-ordering invariant (see DESIGN.md): the cache is consulted before
// Plan/Transport/Resilience ever see the request, so a hit consumes no
// retry budget, trips no circuit breaker, and issues no window traffic.
// Timing for a hit is charged by the engine (CpuParams::cache_hit_service_s
// plus a modeled memcpy of the nominal payload), not here: the cache itself
// is pure bookkeeping, like the fetch planner.
//
// Layout: a slab of LRU nodes linked by index, found through an
// open-addressing id table (linear probing, backward-shift deletion).  The
// slab and the table grow to the most entries ever resident and are reused
// from then on, so a steady-state admission costs exactly one allocation:
// its payload, sized exactly, which eviction frees.  Payload buffers are
// never recycled — a recycled buffer keeps its largest size.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"

namespace dds::core::fetch {

class SampleCache {
 public:
  /// capacity_bytes counts *actual* payload bytes; 0 disables the stage.
  explicit SampleCache(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  bool enabled() const { return capacity_ > 0; }

  /// True when `id` is resident.  Does not touch recency order — the plan
  /// stage probes residency without perturbing LRU state; only serving a
  /// hit (lookup) promotes.
  bool contains(std::uint64_t id) const {
    return !slots_.empty() && slots_[slot_of(id)] != kNone;
  }

  /// Returns the resident payload and promotes it to most-recently-used,
  /// or nullopt on a miss.  The view stays valid until the next insert.
  std::optional<ByteSpan> lookup(std::uint64_t id);

  /// Admits a verified payload, evicting least-recently-used entries until
  /// the cache fits its capacity again.  Returns the number of evictions.
  /// A payload larger than the whole capacity is not admitted (and evicts
  /// nothing).  Re-inserting a resident id refreshes its bytes + recency.
  std::size_t insert(std::uint64_t id, ByteSpan bytes);

  std::uint64_t capacity_bytes() const { return capacity_; }
  std::uint64_t size_bytes() const { return size_; }
  std::size_t entries() const { return entries_; }

  /// Resident ids from most- to least-recently-used (tests/diagnostics).
  std::vector<std::uint64_t> ids_mru_to_lru() const;

 private:
  static constexpr std::uint32_t kNone = 0xffff'ffffu;

  /// One slab slot: a resident payload, or a free slot whose `next` links
  /// the free list.
  struct Node {
    std::uint64_t id = 0;
    std::unique_ptr<std::byte[]> bytes;
    std::size_t length = 0;
    std::uint32_t prev = kNone;  ///< toward the most recently used
    std::uint32_t next = kNone;  ///< toward the least recently used
  };

  /// Table slot holding `id`, or the empty slot where its probe ends.
  /// Requires a non-empty table.
  std::size_t slot_of(std::uint64_t id) const;
  std::size_t home_of(std::uint64_t id) const;
  /// Empties table slot `hole`, shifting later entries of its probe run
  /// back so every lookup still finds them without tombstones.
  void erase_slot(std::size_t hole);
  /// Doubles the table (at least 16 slots) and reinserts every entry.
  void grow_table();

  void unlink(std::uint32_t n);
  void push_front(std::uint32_t n);
  /// Drops the least recently used entry and frees its payload.
  void evict_lru();

  std::uint64_t capacity_;
  std::uint64_t size_ = 0;
  std::size_t entries_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNone;  ///< head of the free-slot list
  std::uint32_t mru_ = kNone;
  std::uint32_t lru_ = kNone;
  /// Open-addressing id table: node indices, kNone when empty.  Its size
  /// is a power of two kept at least twice the entry count.
  std::vector<std::uint32_t> slots_;
  int shift_ = 64;  ///< 64 - log2(slots_.size())
};

}  // namespace dds::core::fetch

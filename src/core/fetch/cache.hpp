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
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
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
    return index_.find(id) != index_.end();
  }

  /// Returns the resident payload and promotes it to most-recently-used,
  /// or nullptr on a miss.  The pointer stays valid until the next insert.
  const ByteBuffer* lookup(std::uint64_t id);

  /// Admits a verified payload, evicting least-recently-used entries until
  /// the cache fits its capacity again.  Returns the number of evictions.
  /// A payload larger than the whole capacity is not admitted (and evicts
  /// nothing).  Re-inserting a resident id refreshes its bytes + recency.
  std::size_t insert(std::uint64_t id, ByteSpan bytes);

  std::uint64_t capacity_bytes() const { return capacity_; }
  std::uint64_t size_bytes() const { return size_; }
  std::size_t entries() const { return lru_.size(); }

  /// Resident ids from most- to least-recently-used (tests/diagnostics).
  std::vector<std::uint64_t> ids_mru_to_lru() const;

 private:
  struct Entry {
    std::uint64_t id;
    ByteBuffer bytes;
  };

  std::uint64_t capacity_;
  std::uint64_t size_ = 0;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace dds::core::fetch

// Batch fetch planning: turn a batch's sample ids into the smallest set of
// vectored RMA transfers that covers them.
//
// The paper's Fig. 3 walkthrough issues one lock/get/unlock per sample; at
// batch size 128 that is 128 lock epochs and 128 network transactions per
// step even when many samples live back-to-back in the same owner's chunk.
// A FetchPlan instead:
//
//   1. dedupes repeated ids (a global-shuffle batch can contain duplicates
//      when the dataset is smaller than one global batch epoch tail);
//   2. groups the unique ids by owner group-rank;
//   3. within each owner, merges registry-adjacent (offset, length) entries
//      into single contiguous ranges (the chunk layout is storage-order, so
//      block-placed batches coalesce aggressively);
//   4. records, per unique sample, where its bytes land inside the staged
//      transfer and every position in the original request it must fill.
//
// The plan is pure bookkeeping over the immutable DataRegistry — no window
// traffic, no clock advancement — so it can run ahead of time (the
// trainer's step pipeline loads batch k+1 while the GPU runs batch k) and
// is directly property-testable: the union of planned ranges must tile the
// requested ids' registry extents exactly, with no gaps and no overlaps.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/registry.hpp"

namespace dds::core {

/// One contiguous byte range in an owner's chunk, produced by merging
/// registry-adjacent samples.  Ranges within a TargetPlan are sorted by
/// offset and pairwise disjoint.
struct PlannedRange {
  std::uint64_t offset = 0;  ///< byte offset in the owner's chunk
  std::uint64_t length = 0;  ///< merged byte length
};

/// One unique sample inside a TargetPlan: where its bytes sit inside the
/// staging buffer of the coalesced transfer, and which request slots it
/// fills.
struct PlannedSample {
  std::uint64_t id = 0;
  std::uint64_t staging_offset = 0;  ///< offset into the target's staging buffer
  std::uint32_t length = 0;
  /// Indices into the original request vector (>= 1 entry; > 1 when the
  /// batch repeats this id).
  std::vector<std::uint32_t> positions;
};

/// All work addressed to one owner: a single lock epoch + one vectored get.
struct TargetPlan {
  int owner = 0;  ///< group rank that holds these samples
  std::vector<PlannedRange> ranges;    ///< sorted by offset, disjoint
  std::vector<PlannedSample> samples;  ///< sorted by chunk offset
  std::uint64_t bytes = 0;             ///< sum of range lengths
};

struct FetchPlan {
  std::vector<TargetPlan> targets;  ///< sorted by owner
  std::uint64_t unique_samples = 0;
  std::uint64_t duplicate_hits = 0;  ///< request entries beyond first occurrence

  std::size_t total_ranges() const {
    std::size_t n = 0;
    for (const auto& t : targets) n += t.ranges.size();
    return n;
  }

  /// Planned transfer volume across all targets (sum of range lengths).
  std::uint64_t total_bytes() const {
    std::uint64_t n = 0;
    for (const auto& t : targets) n += t.bytes;
    return n;
  }
};

/// Builds the coalesced fetch plan for `ids` against `registry`.  Pure and
/// deterministic; an empty request yields an empty plan.
FetchPlan plan_batch_fetch(const DataRegistry& registry,
                           std::span<const std::uint64_t> ids);

/// Cache-aware variant: unique ids for which `is_cached` returns true are
/// diverted to `cached_out` (ascending id order, staging_offset 0, with
/// their request positions) instead of being planned for transfer.  The
/// returned plan covers only the misses — `unique_samples` counts planned
/// misses, while `duplicate_hits` still counts every repeated request entry
/// regardless of caching.  A null predicate reproduces the plain overload.
FetchPlan plan_batch_fetch(const DataRegistry& registry,
                           std::span<const std::uint64_t> ids,
                           const std::function<bool(std::uint64_t)>& is_cached,
                           std::vector<PlannedSample>* cached_out);

}  // namespace dds::core

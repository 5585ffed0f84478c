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
// A plan is a handful of flat arrays — targets, ranges, samples and
// request positions — whatever the batch size, so planning allocates per
// batch, not per sample.
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

/// One unique sample of a plan: where its bytes sit inside the landing
/// buffer of its target's coalesced transfer, and which request slots it
/// fills.
struct PlannedSample {
  std::uint64_t id = 0;
  std::uint64_t staging_offset = 0;  ///< offset into the target's landing bytes
  std::uint32_t length = 0;
  /// This sample's run in FetchPlan::positions: `num_positions` (>= 1;
  /// > 1 when the batch repeats this id) ascending request indices.
  std::uint32_t first_position = 0;
  std::uint32_t num_positions = 0;
};

/// All work addressed to one owner: a single lock epoch + one vectored get.
/// Its ranges and samples are runs of the plan's flat arrays.
struct TargetPlan {
  int owner = 0;  ///< group rank that holds these samples
  std::uint32_t first_range = 0;
  std::uint32_t num_ranges = 0;   ///< ranges sorted by offset, disjoint
  std::uint32_t first_sample = 0;
  std::uint32_t num_samples = 0;  ///< samples sorted by chunk offset
  std::uint64_t bytes = 0;        ///< sum of range lengths
};

struct FetchPlan {
  std::vector<TargetPlan> targets;     ///< sorted by owner
  std::vector<PlannedRange> ranges;    ///< every target's, target by target
  std::vector<PlannedSample> samples;  ///< every target's, target by target
  /// Unique ids the residency predicate claimed, ascending, with
  /// staging_offset 0; they are in no target.
  std::vector<PlannedSample> diverted;
  /// Request indices of every unique id (planned and diverted), grouped by
  /// id in ascending id order; PlannedSample::first_position indexes here.
  std::vector<std::uint32_t> positions;
  std::uint64_t unique_samples = 0;  ///< planned (not diverted) samples
  /// Request entries beyond each id's first occurrence.
  std::uint64_t duplicate_hits = 0;

  std::span<const PlannedRange> ranges_of(const TargetPlan& t) const {
    return std::span(ranges).subspan(t.first_range, t.num_ranges);
  }
  std::span<const PlannedSample> samples_of(const TargetPlan& t) const {
    return std::span(samples).subspan(t.first_sample, t.num_samples);
  }
  std::span<const std::uint32_t> positions_of(const PlannedSample& s) const {
    return std::span(positions).subspan(s.first_position, s.num_positions);
  }

  std::size_t total_ranges() const { return ranges.size(); }

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

/// Residency-aware variant: unique ids for which `is_resident` returns true
/// go to the plan's `diverted` list instead of a transfer.  The plan's
/// targets cover only the rest — `unique_samples` counts planned samples,
/// while `duplicate_hits` still counts every repeated request entry.  A
/// null predicate reproduces the plain overload.
FetchPlan plan_batch_fetch(
    const DataRegistry& registry, std::span<const std::uint64_t> ids,
    const std::function<bool(std::uint64_t)>& is_resident);

}  // namespace dds::core

// Locality-aware batch assignment (DESIGN.md, "Locality-aware batch
// scheduling (`src/sched`)"; GSplit-style co-scheduling).
//
// The global-shuffle sampler hands every rank a uniformly random slice of
// each global batch, so at replica width w roughly (w-1)/w of every batch
// is fetched remotely.  But the *trainer* does not care which rank runs
// which slice: DDP averages gradients over the whole global batch, so any
// permutation of the sample->rank assignment within one global batch is
// semantically equivalent (the per-batch multiset is unchanged).  That
// freedom is an assignment problem: place each of the B = nranks * b slots
// of a global batch onto a rank that already owns the sample's bytes.
//
// Cost model (hot-tier-aware): slot s with sample id on comm rank r costs
//   0  when layout.group_rank_of(r) == owner_of(id) AND the sample is hot
//      (resident in the owner's RMA window, not in the cold tier);
//   1  otherwise (a remote RMA get — or a cold-tier staging read, which no
//      rank placement can turn into a window-local copy).
//
// Structure that makes the matching cheap: a sample's zero-cost candidate
// set is *exactly* the class of ranks holding its owner's chunk — the
// nranks/w ranks r with r % w == owner — and these classes are disjoint
// across owners.  Each class can therefore host min(count_o, capacity_o)
// of its samples locally no matter how they are picked, which means the
// greedy owner-first pass below is *optimal*, not a heuristic; the
// Hungarian solver (sched/hungarian.hpp) exists as the exact oracle that
// proves it on small instances.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/layout.hpp"

namespace dds::sched {

/// A permutation of one global batch's slots across ranks.  Slot indices
/// are positions in the global batch (0..B-1, shuffle order); rank r
/// executes slots `of_rank(r)`, always exactly `local_batch` of them and
/// always sorted ascending (so each rank preserves the shuffle's relative
/// order — a canonical form every engine derives identically).
struct BatchAssignment {
  std::vector<std::uint32_t> slots;  ///< rank-major: [r * local_batch + k]
  std::uint64_t local_batch = 0;
  /// Slots placed on a rank that serves them from its own hot chunk.
  std::uint64_t local_slots = 0;

  std::span<const std::uint32_t> of_rank(int rank) const {
    return std::span<const std::uint32_t>(slots).subspan(
        static_cast<std::size_t>(rank) * local_batch, local_batch);
  }
  int nranks() const {
    return static_cast<int>(slots.size() / local_batch);
  }
};

/// True when `id` placed on comm rank `rank` is a zero-cost (hot-local)
/// assignment under `layout`.
bool is_local_assignment(std::uint64_t id, int rank,
                         const core::Layout& layout);

/// Owner-first greedy matching.  `ids` is one whole global batch in slot
/// order with ids.size() == layout.nranks() * local_batch.  Pass 1 walks
/// slots in order and places each hot sample on a rank of its owner class
/// (round-robin over the class's replica groups so twin load spreads);
/// pass 2 round-robins the overflow — and every cold sample — over the
/// remaining capacity in rank order.  Deterministic, O(B) plus the final
/// per-rank sort, and optimal for the 0/1 cost model (see header comment).
BatchAssignment assign_owner_greedy(std::span<const std::uint64_t> ids,
                                    const core::Layout& layout,
                                    std::uint64_t local_batch);

/// Remote (cost-1) slots of an assignment — the objective both solvers
/// minimize; B - local_slots by construction, recomputed from scratch here
/// as the test oracle's scoring function.
std::uint64_t assignment_remote_cost(const BatchAssignment& assignment,
                                     std::span<const std::uint64_t> ids,
                                     const core::Layout& layout);

}  // namespace dds::sched

#include "core/fetch_plan.hpp"

#include <algorithm>

namespace dds::core {

FetchPlan plan_batch_fetch(const DataRegistry& registry,
                           std::span<const std::uint64_t> ids) {
  return plan_batch_fetch(registry, ids, nullptr);
}

FetchPlan plan_batch_fetch(
    const DataRegistry& registry, std::span<const std::uint64_t> ids,
    const std::function<bool(std::uint64_t)>& is_resident) {
  FetchPlan plan;
  if (ids.empty()) return plan;

  // 1. Dedupe, keeping every request position an id must fill.  Sorting
  // the request indices by (id, index) leaves each distinct id's positions
  // as one ascending run: that order *is* the flat positions array, and the
  // occurrence map stays deterministic with no hash table on the hot path.
  std::vector<std::uint32_t>& order = plan.positions;
  order.resize(ids.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return ids[a] != ids[b] ? ids[a] < ids[b] : a < b;
            });

  struct Unique {
    std::uint64_t id;
    std::uint64_t offset;
    std::uint32_t owner;
    std::uint32_t length;
    std::uint32_t first_position;
    std::uint32_t num_positions;
  };
  std::vector<Unique> uniques;
  uniques.reserve(ids.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) {
    const std::uint64_t id = ids[order[k]];
    if (!uniques.empty() && uniques.back().id == id) {
      ++uniques.back().num_positions;
      ++plan.duplicate_hits;
    } else {
      const auto& entry = registry.lookup(id);
      uniques.push_back(
          Unique{id, entry.offset, entry.owner, entry.length, k, 1});
    }
  }

  // 1b. Residency divert: unique ids the caller already holds never reach
  // a transfer plan.  The ascending-id dedupe order above makes `diverted`
  // deterministic for a given batch.
  if (is_resident) {
    plan.diverted.reserve(uniques.size());
    std::size_t kept = 0;
    for (const Unique& u : uniques) {
      if (is_resident(u.id)) {
        plan.diverted.push_back(PlannedSample{u.id, 0, u.length,
                                              u.first_position,
                                              u.num_positions});
      } else {
        uniques[kept++] = u;
      }
    }
    uniques.resize(kept);
  }
  plan.unique_samples = uniques.size();

  // 2. Group by owner, ordered by chunk offset within each owner.  Distinct
  // samples never share registry extents, so (owner, offset) is a total
  // order.
  std::sort(uniques.begin(), uniques.end(),
            [](const Unique& a, const Unique& b) {
              return a.owner != b.owner ? a.owner < b.owner
                                        : a.offset < b.offset;
            });

  // 3. Emit per-target runs, merging registry-adjacent extents into single
  // ranges.  The landing buffer concatenates the ranges back-to-back, so a
  // sample's staging offset is its range's staging start plus its offset
  // within the range.
  std::size_t owners = 0;
  for (std::size_t i = 0; i < uniques.size(); ++i) {
    if (i == 0 || uniques[i].owner != uniques[i - 1].owner) ++owners;
  }
  plan.targets.reserve(owners);
  plan.samples.reserve(uniques.size());
  plan.ranges.reserve(uniques.size());
  for (const Unique& u : uniques) {
    if (plan.targets.empty() ||
        plan.targets.back().owner != static_cast<int>(u.owner)) {
      TargetPlan tp;
      tp.owner = static_cast<int>(u.owner);
      tp.first_range = static_cast<std::uint32_t>(plan.ranges.size());
      tp.first_sample = static_cast<std::uint32_t>(plan.samples.size());
      plan.targets.push_back(tp);
    }
    TargetPlan& tp = plan.targets.back();
    if (tp.num_ranges == 0 ||
        plan.ranges.back().offset + plan.ranges.back().length != u.offset) {
      plan.ranges.push_back(PlannedRange{u.offset, 0});
      ++tp.num_ranges;
    }
    plan.ranges.back().length += u.length;
    plan.samples.push_back(PlannedSample{u.id, tp.bytes, u.length,
                                         u.first_position, u.num_positions});
    ++tp.num_samples;
    tp.bytes += u.length;
  }
  return plan;
}

}  // namespace dds::core

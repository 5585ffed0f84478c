// Property tests for the batch fetch planner (core/fetch_plan.hpp): across
// widths, placements and batch shapes, the planned ranges must tile the
// requested ids' registry extents exactly — no gaps, no overlaps, maximal
// merging — and the per-sample staging/occurrence bookkeeping must be a
// faithful inverse of the request vector.
#include "core/fetch_plan.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "core/registry.hpp"

namespace dds::core {
namespace {

/// Deterministic per-sample length, never zero.
std::uint32_t length_of(std::uint64_t id) {
  return 40 + static_cast<std::uint32_t>((id * 7919) % 57);
}

std::shared_ptr<DataRegistry> make_registry(std::uint64_t n, int width,
                                            Placement placement) {
  const ChunkAssignment assignment(n, width, placement);
  std::vector<std::uint32_t> lengths;
  std::vector<std::size_t> counts;
  lengths.reserve(n);
  for (int g = 0; g < width; ++g) {
    const auto ids = assignment.ids_of(g);
    counts.push_back(ids.size());
    for (const std::uint64_t id : ids) lengths.push_back(length_of(id));
  }
  return DataRegistry::build(assignment,
                             std::span<const std::uint32_t>(lengths),
                             std::span<const std::size_t>(counts));
}

/// The planner's full contract, checked against one request vector.
void check_plan(const DataRegistry& registry,
                const std::vector<std::uint64_t>& ids) {
  const FetchPlan plan =
      plan_batch_fetch(registry, std::span<const std::uint64_t>(ids));

  // Every request position is filled exactly once, by its own id.
  std::set<std::uint32_t> filled;
  std::set<std::uint64_t> unique_ids(ids.begin(), ids.end());
  std::uint64_t planned_samples = 0;
  for (const auto& tp : plan.targets) {
    for (const auto& s : plan.samples_of(tp)) {
      ++planned_samples;
      for (const std::uint32_t pos : plan.positions_of(s)) {
        ASSERT_LT(pos, ids.size());
        EXPECT_EQ(ids[pos], s.id);
        EXPECT_TRUE(filled.insert(pos).second)
            << "position " << pos << " filled twice";
      }
    }
  }
  EXPECT_EQ(filled.size(), ids.size());
  EXPECT_EQ(planned_samples, unique_ids.size());
  EXPECT_EQ(plan.unique_samples, unique_ids.size());
  EXPECT_EQ(plan.unique_samples + plan.duplicate_hits, ids.size());

  // Per target: ranges sorted, disjoint, maximally merged; their union is
  // exactly the union of the unique samples' registry extents; staging
  // offsets concatenate the ranges back-to-back.
  std::set<int> seen_owners;
  for (const auto& tp : plan.targets) {
    EXPECT_TRUE(seen_owners.insert(tp.owner).second);
    const auto ranges = plan.ranges_of(tp);
    ASSERT_FALSE(ranges.empty());
    ASSERT_FALSE(plan.samples_of(tp).empty());

    std::uint64_t range_bytes = 0;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_GT(ranges[i].length, 0u);
      range_bytes += ranges[i].length;
      if (i > 0) {
        // Disjoint AND non-adjacent: adjacent ranges must have merged.
        EXPECT_GT(ranges[i].offset,
                  ranges[i - 1].offset + ranges[i - 1].length);
      }
    }
    EXPECT_EQ(tp.bytes, range_bytes);

    // Exact tiling: the bytes covered by ranges == the bytes of the unique
    // samples routed to this target, interval by interval.
    std::map<std::uint64_t, std::uint64_t> extents;  // offset -> end
    std::uint64_t sample_bytes = 0;
    for (const auto& s : plan.samples_of(tp)) {
      const auto& entry = registry.lookup(s.id);
      EXPECT_EQ(static_cast<int>(entry.owner), tp.owner);
      EXPECT_EQ(entry.length, s.length);
      extents[entry.offset] = entry.offset + entry.length;
      sample_bytes += entry.length;
    }
    EXPECT_EQ(sample_bytes, range_bytes);  // no gaps, no overlaps possible
    for (const auto& r : plan.ranges_of(tp)) {
      // Walk the merged extents across this range; they must chain
      // seamlessly from its start to its end.
      std::uint64_t cursor = r.offset;
      while (cursor < r.offset + r.length) {
        const auto it = extents.find(cursor);
        ASSERT_NE(it, extents.end())
            << "gap at offset " << cursor << " inside a planned range";
        cursor = it->second;
      }
      EXPECT_EQ(cursor, r.offset + r.length);
    }

    // Staging layout: ranges land back-to-back, so a sample's staging
    // offset is its range's staging start plus its offset within the range.
    std::map<std::uint64_t, std::uint64_t> staging_start;  // chunk -> staging
    std::uint64_t acc = 0;
    for (const auto& r : plan.ranges_of(tp)) {
      staging_start[r.offset] = acc;
      acc += r.length;
    }
    for (const auto& s : plan.samples_of(tp)) {
      const auto& entry = registry.lookup(s.id);
      auto it = staging_start.upper_bound(entry.offset);
      ASSERT_NE(it, staging_start.begin());
      --it;
      EXPECT_EQ(s.staging_offset, it->second + (entry.offset - it->first));
      EXPECT_LE(s.staging_offset + s.length, tp.bytes);
    }
  }
}

TEST(FetchPlan, EmptyRequestYieldsEmptyPlan) {
  const auto registry = make_registry(64, 4, Placement::Block);
  const FetchPlan plan = plan_batch_fetch(*registry, {});
  EXPECT_TRUE(plan.targets.empty());
  EXPECT_EQ(plan.unique_samples, 0u);
  EXPECT_EQ(plan.duplicate_hits, 0u);
  EXPECT_EQ(plan.total_ranges(), 0u);
}

TEST(FetchPlan, BlockPlacedFullSweepCoalescesToOneRangePerTarget) {
  const auto registry = make_registry(64, 4, Placement::Block);
  std::vector<std::uint64_t> ids(64);
  for (std::uint64_t i = 0; i < 64; ++i) ids[i] = i;
  const FetchPlan plan =
      plan_batch_fetch(*registry, std::span<const std::uint64_t>(ids));
  ASSERT_EQ(plan.targets.size(), 4u);
  for (const auto& tp : plan.targets) {
    EXPECT_EQ(tp.num_ranges, 1u) << "owner " << tp.owner;
    EXPECT_EQ(tp.num_samples, 16u);
  }
  check_plan(*registry, ids);
}

TEST(FetchPlan, DuplicatesAreDedupedIntoOneSample) {
  const auto registry = make_registry(32, 2, Placement::Block);
  const std::vector<std::uint64_t> ids = {7, 3, 7, 7, 30, 3, 0};
  const FetchPlan plan =
      plan_batch_fetch(*registry, std::span<const std::uint64_t>(ids));
  EXPECT_EQ(plan.unique_samples, 4u);
  EXPECT_EQ(plan.duplicate_hits, 3u);
  check_plan(*registry, ids);
}

TEST(FetchPlan, PropertySweepAcrossWidthsPlacementsAndBatches) {
  Rng rng(20240805);
  for (const int width : {1, 2, 4, 8}) {
    for (const Placement placement :
         {Placement::Block, Placement::RoundRobin}) {
      const std::uint64_t n = 96;
      const auto registry = make_registry(n, width, placement);

      // Full sweep, single id, and 20 random batches (with duplicates).
      std::vector<std::uint64_t> sweep(n);
      for (std::uint64_t i = 0; i < n; ++i) sweep[i] = i;
      check_plan(*registry, sweep);
      check_plan(*registry, {n / 2});

      for (int trial = 0; trial < 20; ++trial) {
        const std::size_t len = 1 + rng.uniform_u64(48);
        std::vector<std::uint64_t> ids(len);
        for (auto& id : ids) id = rng.uniform_u64(n);
        check_plan(*registry, ids);
      }
    }
  }
}

}  // namespace
}  // namespace dds::core

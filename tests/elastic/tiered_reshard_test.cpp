// Elastic x tiered: re-striping a hot-shard store.  The planner must move
// only the hot set (keeps + RMA pulls), classify hot-in-new-but-cold-in-old
// samples as cold re-staging work, and price that work with the analytic
// staging-queue model the executor charges — unit-tested here against a
// hand-computed estimate.  A live reshard sequence over a tiered store must
// still deliver byte-identical samples afterwards, and a sample cached
// while hot stays a cache hit after a reshard makes it cold.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/checksum.hpp"
#include "datagen/dataset.hpp"
#include "elastic/executor.hpp"
#include "elastic/plan.hpp"
#include "formats/cff.hpp"

namespace dds::elastic {
namespace {

using core::DDStore;
using core::DDStoreConfig;
using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 64;

/// A tiered layout over synthetic per-sample lengths, built without any
/// runtime (same helper shape as reshard_plan_test.cpp).
core::Layout make_layout(int nranks, int width, double hot_fraction,
                         const std::vector<std::uint32_t>& sample_lengths) {
  const core::ChunkAssignment a(sample_lengths.size(), width,
                                core::Placement::Block);
  std::vector<std::uint32_t> lengths;
  std::vector<std::size_t> counts;
  std::vector<std::uint64_t> checksums;
  for (int g = 0; g < width; ++g) {
    const auto ids = a.ids_of(g);
    counts.push_back(ids.size());
    for (const std::uint64_t id : ids) {
      lengths.push_back(sample_lengths[id]);
      checksums.push_back(id * 1315423911ULL + 17);
    }
  }
  auto reg = core::DataRegistry::build(
      a, std::span<const std::uint32_t>(lengths),
      std::span<const std::size_t>(counts),
      std::span<const std::uint64_t>(checksums));
  return core::Layout(nranks, width, core::Placement::Block, std::move(reg),
                      hot_fraction);
}

std::vector<std::uint32_t> varied_lengths(std::uint64_t n) {
  std::vector<std::uint32_t> lengths(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    lengths[i] = 64 + static_cast<std::uint32_t>((i * 37) % 129);
  }
  return lengths;
}

TEST(TieredReshardPlan, OnlyTheHotSetMovesAndColdStagesAreClassified) {
  const auto lengths = varied_lengths(96);
  const core::Layout from = make_layout(8, 4, 0.5, lengths);
  const core::Layout to = from.with_width(2);
  ASSERT_TRUE(to.tiered());
  ASSERT_DOUBLE_EQ(to.hot_fraction(), 0.5);  // with_width carries the knob
  const ReshardPlan plan = plan_reshard(from, to);

  std::uint64_t classified_cold = 0;
  for (const RankReshardPlan& rp : plan.ranks) {
    const int owner_new = to.group_rank_of(rp.rank);
    // Every classified byte is hot under the new layout; keeps + pulls +
    // cold_stages tile exactly the hot prefix, nothing more.
    EXPECT_EQ(rp.keep_bytes + rp.pull_bytes + rp.cold_stage_bytes,
              to.hot_prefix_bytes(owner_new))
        << "rank " << rp.rank;
    for (const PullPlan& pull : rp.pulls) {
      EXPECT_NE(pull.source, rp.rank) << "self-send";
    }
    // cold_stages must be exactly the hot-in-to-but-cold-in-from samples.
    std::uint64_t expect_cold_samples = 0;
    for (const std::uint64_t id : to.assignment().ids_of(owner_new)) {
      if (to.is_hot(id) && !from.is_hot(id)) ++expect_cold_samples;
    }
    EXPECT_EQ(rp.cold_stage_samples, expect_cold_samples)
        << "rank " << rp.rank;
    classified_cold += rp.cold_stage_bytes;
  }
  EXPECT_EQ(plan.total_cold_stage_bytes, classified_cold);
  EXPECT_GT(plan.total_cold_stage_bytes, 0u)
      << "halving the width doubles each chunk: its new hot prefix must "
         "reach samples that were cold before";
}

TEST(TieredReshardPlan, FullHotFractionMatchesUntieredPlan) {
  const auto lengths = varied_lengths(96);
  const core::Layout from = make_layout(8, 4, 1.0, lengths);
  const ReshardPlan plan = plan_reshard(from, from.with_width(2));
  EXPECT_EQ(plan.total_cold_stage_bytes, 0u);
  for (const RankReshardPlan& rp : plan.ranks) {
    EXPECT_TRUE(rp.cold_stages.empty());
    EXPECT_EQ(rp.keep_bytes + rp.pull_bytes, rp.new_chunk_bytes);
  }
}

TEST(TieredReshardPlan, RebuildPullsHotPrefixAndStagesColdSuffix) {
  const core::Layout layout = make_layout(8, 4, 0.5, varied_lengths(64));
  const ReshardPlan plan = plan_rebuild(layout, /*dead_rank=*/2);
  const RankReshardPlan& rp = plan.ranks[2];
  const int owner = layout.group_rank_of(2);
  ASSERT_EQ(rp.pulls.size(), 1u);
  EXPECT_EQ(rp.pulls[0].bytes, layout.hot_prefix_bytes(owner));
  EXPECT_EQ(rp.pulls[0].samples, layout.hot_samples_of(owner));
  ASSERT_EQ(rp.cold_stages.size(), 1u);
  EXPECT_EQ(rp.cold_stage_bytes,
            layout.chunk_bytes(owner) - layout.hot_prefix_bytes(owner));
  EXPECT_EQ(rp.pull_bytes + rp.cold_stage_bytes, layout.chunk_bytes(owner));
}

TEST(TieredReshardEstimate, ColdStageModelMatchesAnalyticFormula) {
  const model::FsParams& fs = test_machine().fs;
  const std::uint64_t nominal = 1 * MiB;
  for (const int depth : {1, 4, 8}) {
    for (const std::uint64_t samples : {1ULL, 7ULL, 8ULL, 33ULL}) {
      const double rounds = std::ceil(static_cast<double>(samples) /
                                      static_cast<double>(depth));
      const double expected =
          rounds * (fs.read_latency_s + fs.random_read_penalty_s) +
          static_cast<double>(samples * nominal) / fs.aggregate_bandwidth_Bps;
      EXPECT_DOUBLE_EQ(cold_stage_seconds(samples, nominal, fs, depth),
                       expected)
          << "samples " << samples << " depth " << depth;
    }
  }
  EXPECT_DOUBLE_EQ(cold_stage_seconds(0, nominal, fs, 8), 0.0);
}

TEST(TieredReshardEstimate, EstimateIsSlowestRankIncludingColdTerm) {
  const auto lengths = varied_lengths(96);
  const core::Layout from = make_layout(8, 4, 0.5, lengths);
  const core::Layout to = from.with_width(2);
  const ReshardPlan plan = plan_reshard(from, to);
  const model::MachineConfig machine = test_machine();
  const std::uint64_t nominal = 1 * MiB;
  const int depth = 8;

  // Recompute the estimate from the documented formula: per rank, each
  // pull pays overhead + latency + per-extra-segment descriptor cost +
  // nominal wire bytes; keeps pay the memcpy; cold stages pay the
  // staging-queue model.  The estimate is the slowest rank.
  double worst = 0.0;
  for (const RankReshardPlan& rp : plan.ranks) {
    double t = 0.0;
    for (const PullPlan& pull : rp.pulls) {
      const bool intra =
          machine.node_of_rank(rp.rank) == machine.node_of_rank(pull.source);
      t += (intra ? machine.net.rma_intra_overhead_s
                  : machine.net.rma_remote_overhead_s) +
           (intra ? machine.net.intra_latency_s
                  : machine.net.inter_latency_s) +
           static_cast<double>(pull.segments.size() - 1) *
               machine.net.rma_segment_overhead_s +
           static_cast<double>(pull.samples * nominal) /
               (intra ? machine.net.intra_bandwidth_Bps
                      : machine.net.inter_bandwidth_Bps);
    }
    if (rp.keep_samples > 0) {
      t += static_cast<double>(rp.keep_samples * nominal) /
           machine.cpu.memcpy_bandwidth_Bps;
    }
    t += cold_stage_seconds(rp.cold_stage_samples, nominal, machine.fs, depth);
    worst = std::max(worst, t);
  }
  EXPECT_DOUBLE_EQ(estimate_reshard_seconds(plan, machine, nominal, depth),
                   worst);
  // The cold term must actually be priced in: a deeper queue amortizes the
  // per-round latency, so the estimate strictly decreases with depth.
  EXPECT_GT(estimate_reshard_seconds(plan, machine, nominal, 1),
            estimate_reshard_seconds(plan, machine, nominal, 16));
}

// ---- live store: reshard a tiered store ----------------------------------

class TieredElasticStoreTest : public ::testing::Test {
 protected:
  TieredElasticStoreTest()
      : machine_(test_machine()),
        fs_(machine_.fs, /*nnodes=*/4),
        ds_(datagen::make_dataset(DatasetKind::AisdHomoLumo, kSamples, 7)) {
    formats::CffWriter::stage(fs_, "cff/ds", *ds_, 2);
  }

  fs::FsClient client_for(simmpi::Comm& c) {
    return fs::FsClient(fs_, machine_.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
  }

  formats::CffReader cff_reader() {
    return formats::CffReader(fs_, "cff/ds",
                              ds_->spec().nominal_cff_sample_bytes());
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(TieredElasticStoreTest, ReshardSequencePreservesEverySample) {
  simmpi::Runtime rt(8, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 4;
    cfg.tiered.hot_fraction = 0.5;
    DDStore store(c, reader, client, cfg);

    for (const int width : {2, 8, 4}) {
      reshard(store, width);
      EXPECT_EQ(store.width(), width);
      EXPECT_TRUE(store.layout().tiered());
      for (std::uint64_t id = 0; id < kSamples; ++id) {
        const ByteBuffer bytes = store.get_bytes(id);
        const auto& entry = store.registry().lookup(id);
        ASSERT_EQ(bytes.size(), entry.length) << "sample " << id;
        EXPECT_EQ(checksum64(ByteSpan(bytes)), entry.checksum)
            << "sample " << id << " width " << width;
      }
    }
    EXPECT_EQ(store.stats().reshards, 3u);
    EXPECT_GT(store.stats().reshard_cold_stage_bytes, 0u)
        << "some re-striped hot samples must have been cold before";
    store.fence();
  });
}

// A narrowing reshard can make a cached hot sample cold.  Both read paths
// then serve it from the cache — the cheaper hit wins until eviction
// retires it — instead of reading it from the cold tier.
TEST_F(TieredElasticStoreTest, CachedSampleMadeColdByReshardStillHitsCache) {
  simmpi::Runtime rt(8, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 8;
    cfg.batch_fetch = core::BatchFetchMode::Coalesced;
    cfg.cache_capacity_bytes = std::numeric_limits<std::uint64_t>::max();
    cfg.tiered.hot_fraction = 0.5;
    DDStore store(c, reader, client, cfg);
    const core::Layout wide = store.layout();
    const core::Layout narrow = wide.with_width(2);
    std::uint64_t id = 0;
    while (id < kSamples && !(wide.is_hot(id) && !narrow.is_hot(id))) ++id;
    ASSERT_LT(id, kSamples) << "no sample is hot at width 8 but cold at 2";
    EXPECT_EQ(store.get(id), ds_->make(id));  // hot: fetched, then cached

    reshard(store, 2);
    ASSERT_FALSE(store.layout().is_hot(id));
    const auto before = store.stats();
    EXPECT_EQ(store.get(id), ds_->make(id));
    EXPECT_EQ(store.stats().cache_hits, before.cache_hits + 1);
    const auto batch = store.get_batch(std::vector<std::uint64_t>{id});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], ds_->make(id));
    EXPECT_EQ(store.stats().cache_hits, before.cache_hits + 2);
    EXPECT_EQ(store.stats().cold_misses, before.cold_misses);
    EXPECT_EQ(store.stats().staged_hits, before.staged_hits);
    store.fence();
  });
}

}  // namespace
}  // namespace dds::elastic

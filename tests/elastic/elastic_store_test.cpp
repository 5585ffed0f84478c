// End-to-end elasticity: byte identity under reshard sequences, the
// dead-rank rebuild hook, and the adaptive controller converging on a
// live store.  The contract under test is ISSUE 5's acceptance bar: after
// ANY sequence of reshards (including a fault rebuild), every sample's
// bytes and checksums match what a static-width store serves.
#include <gtest/gtest.h>

#include "common/checksum.hpp"
#include "datagen/dataset.hpp"
#include "elastic/driver.hpp"
#include "elastic/executor.hpp"
#include "formats/cff.hpp"

namespace dds::elastic {
namespace {

using core::DDStore;
using core::DDStoreConfig;
using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 64;

class ElasticStoreTest : public ::testing::Test {
 protected:
  ElasticStoreTest()
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

  /// Every sample's fetched bytes must match the dataset ground truth AND
  /// the registry's recorded checksum under the store's current layout.
  void expect_byte_identity(DDStore& store) {
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      const ByteBuffer bytes = store.get_bytes(id);
      const auto& entry = store.registry().lookup(id);
      ASSERT_EQ(bytes.size(), entry.length) << "sample " << id;
      EXPECT_EQ(checksum64(ByteSpan(bytes)), entry.checksum)
          << "sample " << id;
      EXPECT_EQ(store.get(id), ds_->make(id)) << "sample " << id;
    }
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(ElasticStoreTest, ReshardSequencePreservesEverySample) {
  simmpi::Runtime rt(8, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 4;
    DDStore store(c, reader, client, cfg);

    // Walk the width ladder both directions; verify after every swap.
    for (const int width : {2, 4, 8, 1, 4}) {
      reshard(store, width);
      EXPECT_EQ(store.width(), width);
      EXPECT_EQ(store.num_replicas(), 8 / width);
      EXPECT_EQ(store.group().size(), width);
      expect_byte_identity(store);
    }
    EXPECT_EQ(store.stats().reshards, 5u);
    EXPECT_GT(store.stats().reshard_keep_bytes, 0u)
        << "minimal movement must reuse resident bytes somewhere";
    store.fence();
  });
}

TEST_F(ElasticStoreTest, SameWidthReshardIsANoOp) {
  simmpi::Runtime rt(8, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 4;
    DDStore store(c, reader, client, cfg);
    const ReshardPlan plan = reshard(store, 4);
    EXPECT_TRUE(plan.ranks.empty());
    EXPECT_EQ(store.stats().reshards, 0u);
  });
}

TEST_F(ElasticStoreTest, CacheStaysValidAcrossReshard) {
  simmpi::Runtime rt(8, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 4;
    cfg.cache_capacity_bytes = 64ull << 20;
    DDStore store(c, reader, client, cfg);
    for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get_bytes(id);
    reshard(store, 2);
    // Keys are sample ids — the warm cache survives the swap and still
    // serves correct bytes under the new striping.
    expect_byte_identity(store);
    EXPECT_GT(store.stats().cache_hits, 0u);
  });
}

TEST_F(ElasticStoreTest, DeadRankIsRebuiltFromItsTwinAndRevived) {
  simmpi::Runtime rt(8, machine_, /*seed=*/42);
  faults::FaultConfig fc;
  // Rank 2 (a group 0 member) is dead from the start; its twin (rank 6)
  // lives in group 1.
  fc.deaths.push_back(faults::DeathPhase{2, 0.0});
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 8));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 4;
    DDStore store(c, reader, client, cfg);
    ElasticConfig ecfg;
    ecfg.adapt_width = false;  // isolate the fault-recovery hook
    ElasticDriver driver(store, ecfg);

    // Epoch 1: fetches targeting rank 2 fail over to its twin; breakers
    // trip, which is the suspicion signal the driver aggregates.
    const double t0 = c.clock().now();
    for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get_bytes(id);
    driver.on_epoch_end(c.clock().now() - t0);

    EXPECT_STREQ(driver.last_reason(), "recovering");
    EXPECT_EQ(store.stats().rank_rebuilds, c.rank() == 2 ? 1u : 0u);
    EXPECT_FALSE(store.breaker_open(2));

    // Epoch 2: the revived rank serves again — no failovers, no degraded
    // reads, and every byte is still right.
    const std::uint64_t failovers_before = store.stats().failovers;
    expect_byte_identity(store);
    EXPECT_EQ(store.stats().failovers, failovers_before);
    EXPECT_EQ(store.stats().degraded_reads, 0u);

    // Elasticity composes with recovery: reshard after the rebuild and
    // verify the identity once more.
    reshard(store, 2);
    expect_byte_identity(store);
    store.fence();
  });
}

TEST_F(ElasticStoreTest, SingleReplicaGroupStaysDegradedInsteadOfRebuilding) {
  simmpi::Runtime rt(8, machine_, /*seed=*/42);
  faults::FaultConfig fc;
  // Width 8 = one group: dead rank 2 has no twin.
  fc.deaths.push_back(faults::DeathPhase{2, 0.0});
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 8));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 8;
    DDStore store(c, reader, client, cfg);
    ElasticDriver driver(store, ElasticConfig{.adapt_width = false});

    const double t0 = c.clock().now();
    for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get_bytes(id);
    driver.on_epoch_end(c.clock().now() - t0);

    // No sibling group: the driver must leave the store in degraded mode
    // (FS fallback) rather than attempt an impossible rebuild.
    EXPECT_EQ(store.stats().rank_rebuilds, 0u);
    if (c.rank() != 2) {
      EXPECT_GT(store.stats().degraded_reads, 0u);
    }
    store.fence();
  });
}

TEST_F(ElasticStoreTest, AdaptiveControllerConvergesToTheFeasibleFloor) {
  simmpi::Runtime rt(8, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 8;
    DDStore store(c, reader, client, cfg);

    // Budget floor at width 2: width-1 chunks (the whole dataset) exceed
    // the budget, width-2 chunks fit.
    const std::uint64_t dataset_bytes =
        store.num_samples() * store.nominal_sample_bytes();
    ElasticConfig ecfg;
    ecfg.memory_budget_per_rank = dataset_bytes / 2 + 1;
    ElasticDriver driver(store, ecfg);

    for (int epoch = 0; epoch < 6; ++epoch) {
      const double t0 = c.clock().now();
      for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get(id);
      c.barrier();
      driver.on_epoch_end(c.clock().now() - t0);
    }
    EXPECT_EQ(store.width(), 2);
    EXPECT_TRUE(driver.controller().converged());
    // The trajectory walks monotonically down the divisor ladder.
    const std::vector<int>& traj = driver.width_trajectory();
    ASSERT_GE(traj.size(), 2u);
    EXPECT_EQ(traj.front(), 8);
    for (std::size_t i = 1; i < traj.size(); ++i) {
      EXPECT_LE(traj[i], traj[i - 1]);
    }
    expect_byte_identity(store);
    store.fence();
  });
}

}  // namespace
}  // namespace dds::elastic

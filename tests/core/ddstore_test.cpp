#include "core/ddstore.hpp"

#include <gtest/gtest.h>

#include <set>

#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "formats/pff.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 64;

/// Shared fixture: a staged dataset on the simulated FS.
class DDStoreTest : public ::testing::Test {
 protected:
  DDStoreTest()
      : machine_(test_machine()),
        fs_(machine_.fs, /*nnodes=*/4),
        ds_(datagen::make_dataset(DatasetKind::AisdHomoLumo, kSamples, 7)) {
    formats::CffWriter::stage(fs_, "cff/ds", *ds_, 2);
    formats::PffWriter::stage(fs_, "pff/ds", *ds_);
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

TEST_F(DDStoreTest, SingleReplicaFetchesEverySampleCorrectly) {
  simmpi::Runtime rt(8, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);  // default width = 8, one replica
    EXPECT_EQ(store.width(), 8);
    EXPECT_EQ(store.num_replicas(), 1);
    EXPECT_EQ(store.num_samples(), kSamples);
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      EXPECT_EQ(store.get(id), ds_->make(id)) << "sample " << id;
    }
    store.fence();
  });
}

TEST_F(DDStoreTest, ReplicatedStoreWidthTwo) {
  simmpi::Runtime rt(8, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 2;
    DDStore store(c, reader, client, cfg);
    EXPECT_EQ(store.num_replicas(), 4);
    EXPECT_EQ(store.group().size(), 2);
    EXPECT_EQ(store.replica_index(), c.rank() / 2);
    // Every rank can still reach every sample (from inside its group).
    for (std::uint64_t id = 0; id < kSamples; id += 7) {
      EXPECT_EQ(store.get(id), ds_->make(id));
    }
    store.fence();
  });
}

TEST_F(DDStoreTest, WidthMustDivideCommSize) {
  simmpi::Runtime rt(6, machine_);
  const auto reader = cff_reader();
  EXPECT_THROW(rt.run([&](simmpi::Comm& c) {
                 auto client = client_for(c);
                 DDStoreConfig cfg;
                 cfg.width = 4;
                 DDStore store(c, reader, client, cfg);
               }),
               ConfigError);
}

TEST_F(DDStoreTest, LocalityFollowsPlacement) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);  // width 4: block placement
    const ChunkAssignment a(kSamples, 4, Placement::Block);
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      EXPECT_EQ(store.owner_of(id), a.owner_of(id));
      EXPECT_EQ(store.is_local(id), a.owner_of(id) == c.rank());
    }
  });
}

TEST_F(DDStoreTest, StatsDistinguishLocalAndRemote) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    store.reset_stats();
    // Fetch one local and one remote sample.
    const ChunkAssignment a(kSamples, 4, Placement::Block);
    std::uint64_t local_id = 0, remote_id = 0;
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      if (a.owner_of(id) == c.rank()) local_id = id;
      if (a.owner_of(id) == (c.rank() + 1) % 4) remote_id = id;
    }
    store.get(local_id);
    store.get(remote_id);
    EXPECT_EQ(store.stats().local_gets, 1u);
    EXPECT_EQ(store.stats().remote_gets, 1u);
    EXPECT_EQ(store.stats().latency.count(), 2u);
    EXPECT_GT(store.stats().bytes_fetched, 0u);
    // Nominal accounting uses the paper-scale sample size.
    EXPECT_EQ(store.stats().nominal_bytes_fetched,
              2 * reader.nominal_sample_bytes());
    EXPECT_GT(store.stats().nominal_bytes_fetched,
              store.stats().bytes_fetched);
  });
}

TEST_F(DDStoreTest, LocalFetchIsFasterThanRemote) {
  simmpi::Runtime rt(8, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    const ChunkAssignment a(kSamples, 8, Placement::Block);
    std::uint64_t local_id = 0, far_id = 0;
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      if (a.owner_of(id) == c.rank()) local_id = id;
      if (a.owner_of(id) == (c.rank() + 4) % 8) far_id = id;  // other node
    }
    const double t0 = c.clock().now();
    store.get(local_id);
    const double local_cost = c.clock().now() - t0;
    const double t1 = c.clock().now();
    store.get(far_id);
    const double remote_cost = c.clock().now() - t1;
    EXPECT_LT(local_cost, remote_cost);
  });
}

TEST_F(DDStoreTest, GetBatchPreservesRequestOrder) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    const std::vector<std::uint64_t> ids = {60, 3, 33, 17, 0, 63};
    const auto batch = store.get_batch(ids);
    ASSERT_EQ(batch.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(batch[i].id, ids[i]);
      EXPECT_EQ(batch[i], ds_->make(ids[i]));
    }
  });
}

TEST_F(DDStoreTest, RoundRobinPlacementWorks) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.placement = Placement::RoundRobin;
    DDStore store(c, reader, client, cfg);
    for (std::uint64_t id = 0; id < kSamples; id += 5) {
      EXPECT_EQ(store.get(id), ds_->make(id));
      EXPECT_EQ(store.owner_of(id), static_cast<int>(id % 4));
    }
  });
}

TEST_F(DDStoreTest, WorksWithPffReaderToo) {
  simmpi::Runtime rt(4, machine_);
  const formats::PffReader reader(fs_, "pff/ds", kSamples,
                                  ds_->spec().nominal_pff_sample_bytes());
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    for (std::uint64_t id = 0; id < kSamples; id += 9) {
      EXPECT_EQ(store.get(id), ds_->make(id));
    }
  });
}

TEST_F(DDStoreTest, PreloadTouchesFsButFetchesDoNot) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    EXPECT_GT(store.stats().preload_seconds, 0.0);
    const auto opens_after_preload = client.stats().opens;
    const auto reads_after_preload = client.stats().reads;
    for (std::uint64_t id = 0; id < kSamples; ++id) store.get(id);
    // All fetches are in-memory transactions: no new FS activity.
    EXPECT_EQ(client.stats().opens, opens_after_preload);
    EXPECT_EQ(client.stats().reads, reads_after_preload);
  });
}

TEST_F(DDStoreTest, WidthTwoMakesHalfTheFetchesLocal) {
  // The paper's Table 3 mechanism: with width=2 roughly half of a uniform
  // random workload is served from the rank's own chunk.
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 2;
    DDStore store(c, reader, client, cfg);
    store.reset_stats();
    for (std::uint64_t id = 0; id < kSamples; ++id) store.get(id);
    const double local_frac =
        static_cast<double>(store.stats().local_gets) / kSamples;
    EXPECT_NEAR(local_frac, 0.5, 0.05);
  });
}

TEST_F(DDStoreTest, ReplicaGroupsAreIsolated) {
  // A fault-free fetch must resolve to the requester's own replica group:
  // the window spans the full communicator (so failover can reach sibling
  // groups), but the primary target is always the in-group twin.
  simmpi::Runtime rt(8, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 4;
    DDStore store(c, reader, client, cfg);
    EXPECT_LT(store.owner_of(kSamples - 1), 4);
    for (std::uint64_t id = 0; id < kSamples; id += 11) {
      EXPECT_EQ(store.get(id), ds_->make(id));
    }
  });
}

using FetchMetricsLayout = DDStoreTest;

TEST_F(FetchMetricsLayout, SameCountersInEveryConfiguration) {
  // Every fetch-path, tier, hedge, scheduling and reshard counter is
  // registered whatever the config, so snapshots of differently configured
  // stores line up name for name.
  DDStoreConfig armed;
  armed.width = 4;
  armed.cache_capacity_bytes = 64ull << 20;
  armed.hedge = true;
  armed.tiered.hot_fraction = 0.5;
  armed.locality_mode = LocalityMode::OwnerGreedy;
  std::vector<std::string> names[2];
  const DDStoreConfig configs[2] = {DDStoreConfig{}, armed};
  const auto reader = cff_reader();
  for (int k = 0; k < 2; ++k) {
    simmpi::Runtime rt(8, machine_);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStore store(c, reader, client, configs[k]);
      const std::vector<std::string> at_construction =
          store.metrics().counter_names();
      const std::uint64_t ids[] = {0, 17, 33, 50, 63};
      (void)store.get_batch(ids);
      EXPECT_EQ(store.metrics().counter_names(), at_construction);
      if (c.rank() == 0) names[k] = at_construction;
    });
  }
  EXPECT_EQ(names[0], names[1]);
}

TEST(DDStoreScale, ResilienceStateGrowsOnlyWithTouchedTargets) {
  // All ranks share one process, so resilience state sized to the
  // communicator would cost N^2 here.  At fig8 --smoke's shape (1024 ranks,
  // one replica, per-sample, no faults) each rank holds records only for
  // the targets its fetches touched.
  constexpr int kRanks = 1024;
  constexpr std::uint64_t kScaleSamples = 2 * kRanks;
  const auto machine = test_machine();
  fs::ParallelFileSystem fs(machine.fs, machine.nodes_for_ranks(kRanks));
  const auto ds =
      datagen::make_dataset(DatasetKind::AisdHomoLumo, kScaleSamples, 7);
  formats::CffWriter::stage(fs, "cff/ds", *ds, 2);
  const formats::CffReader reader(fs, "cff/ds",
                                  ds->spec().nominal_cff_sample_bytes());
  simmpi::Runtime rt(kRanks, machine);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(fs, machine.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
    DDStore store(c, reader, client);
    EXPECT_EQ(store.num_replicas(), 1);
    EXPECT_EQ(store.resilience_targets(), 0u);
    std::set<int> touched;
    for (std::uint64_t j = 0; j < 4; ++j) {
      const std::uint64_t id =
          (static_cast<std::uint64_t>(c.rank()) * 37 + j * 613) %
          kScaleSamples;
      (void)store.get(id);
      touched.insert(
          store.layout().primary_target(c.rank(), store.owner_of(id)));
    }
    EXPECT_EQ(store.resilience_targets(), touched.size());
    int untouched = 0;
    while (touched.count(untouched) != 0) ++untouched;
    EXPECT_FALSE(store.breaker_open(untouched));
    EXPECT_EQ(store.health_score(untouched), 1.0);
    EXPECT_EQ(store.resilience_targets(), touched.size());  // reads add none
    store.reset_target_health(*touched.begin());
    EXPECT_EQ(store.resilience_targets(), touched.size() - 1);
  });
}

}  // namespace
}  // namespace dds::core

// Cross-tenant isolation and QoS, end to end through the MultiTenantDriver.
//
// The load-bearing claims:
//   * served bytes are a pure function of the tenant's own sampler — a
//     tenant sharing the store (and its cache) with N-1 others is served
//     the exact same payload bytes as running solo;
//   * real-GNN loss curves are bit-identical between a solo run and the
//     same trainer interleaved with another tenant under the arbiter —
//     interleaving changes execution order, never math;
//   * per-tenant labeled counters partition the global counters when all
//     traffic flows through tenants;
//   * one greedy tenant cannot starve another: the victim's wait is capped
//     by the starvation bound and its p99 fetch latency stays within a
//     small factor of its solo p99;
//   * a tenant runs the trainer's own step: one tenant under the driver
//     models its epoch bit for bit as a SimulatedTrainer does over the
//     same mounted backend.
#include "tenant/driver.hpp"

#include <gtest/gtest.h>


#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "simmpi/runtime.hpp"
#include "train/sim_trainer.hpp"

namespace dds::tenant {
namespace {

using model::test_machine;

constexpr std::uint64_t kSamples = 256;
constexpr int kRanks = 4;

struct MultiTenantTest : public ::testing::Test {
  MultiTenantTest()
      : machine_(test_machine()),
        fs_(machine_.fs, /*nnodes=*/4),
        ds_(datagen::make_dataset(datagen::DatasetKind::AisdHomoLumo, kSamples,
                                  11)) {
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

  core::DDStoreConfig store_config() {
    core::DDStoreConfig cfg;
    cfg.width = 2;
    cfg.cache_capacity_bytes = 64 * 1024;  // small: tenants compete
    return cfg;
  }

  /// Four tenants with distinct seeds/batches; [0] mounts the first half,
  /// the rest share the full store.
  std::vector<TenantSpec> four_tenants() {
    std::vector<TenantSpec> specs(4);
    specs[0].name = "half";
    specs[0].mount_samples = kSamples / 2;
    specs[0].local_batch = 4;
    specs[0].seed = 21;
    specs[1].name = "full-a";
    specs[1].local_batch = 8;
    specs[1].seed = 22;
    specs[2].name = "full-b";
    specs[2].local_batch = 8;
    specs[2].seed = 23;
    specs[2].weight = 2.0;
    specs[3].name = "small";
    specs[3].local_batch = 2;
    specs[3].seed = 24;
    return specs;
  }

  /// Runs `epochs` driver epochs over the given tenants and returns the
  /// last epoch's reports (rank-identical, so rank 0's copy suffices).
  std::vector<TenantEpochReport> run_driver(
      const std::vector<TenantSpec>& specs, std::uint64_t epochs,
      QosPolicy policy = {}) {
    simmpi::Runtime rt(kRanks, machine_, /*seed=*/42);
    const auto reader = cff_reader();
    std::vector<TenantEpochReport> out;
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStore store(c, reader, client, store_config());
      TenantRegistry reg(store);
      for (const auto& s : specs) reg.admit(s);
      DriverConfig dcfg;
      dcfg.policy = policy;
      MultiTenantDriver driver(c, reg, machine_, dcfg);
      std::vector<TenantEpochReport> last;
      for (std::uint64_t e = 0; e < epochs; ++e) last = driver.run_epoch(e);
      if (c.rank() == 0) {
        out = last;
      }
    });
    return out;
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(MultiTenantTest, ServedBytesMatchSoloRun) {
  const auto specs = four_tenants();
  const auto shared = run_driver(specs, 2);
  ASSERT_EQ(shared.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    // Same tenant, alone on a fresh store: the shuffle (hence the unique id
    // multiset per batch, hence the served bytes) must be identical — cache
    // sharing changes *where* bytes come from, never *which*.
    const auto solo = run_driver({specs[k]}, 2);
    ASSERT_EQ(solo.size(), 1u);
    EXPECT_EQ(shared[k].served_bytes, solo[0].served_bytes)
        << "tenant " << specs[k].name;
    EXPECT_EQ(shared[k].global_samples, solo[0].global_samples);
    EXPECT_GT(shared[k].served_bytes, 0u);
  }
}

TEST_F(MultiTenantTest, LabeledCountersPartitionGlobalTraffic) {
  // Per-sample batches take one lock epoch per sample, coalesced batches
  // one vectored transfer per target; attribution at the mount must
  // partition the global traffic exactly on both read paths.
  const auto specs = four_tenants();
  const auto reader = cff_reader();
  for (const auto mode :
       {core::BatchFetchMode::PerSample, core::BatchFetchMode::Coalesced}) {
    SCOPED_TRACE(mode == core::BatchFetchMode::PerSample ? "PerSample"
                                                         : "Coalesced");
    simmpi::Runtime rt(kRanks, machine_, 42);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStoreConfig cfg = store_config();
      cfg.batch_fetch = mode;
      core::DDStore store(c, reader, client, cfg);
      TenantRegistry reg(store);
      for (const auto& s : specs) reg.admit(s);
      MultiTenantDriver driver(c, reg, machine_);
      (void)driver.run_epoch(0);
      // All loads went through tenants, so the labeled families must sum
      // to exactly the global counters (this rank's view).
      const auto& m = store.metrics();
      for (const std::string family :
           {"bytes_fetched", "cache_hits", "cache_misses", "cache_hit_bytes",
            "local_gets", "remote_gets", "lock_epochs"}) {
        const auto members = m.family_values(family);
        std::uint64_t labeled = 0;
        std::uint64_t global = 0;
        for (const auto& [label, value] : members) {
          (label.empty() ? global : labeled) += value;
        }
        EXPECT_EQ(labeled, global) << family;
      }
      // Every sample latency this rank recorded went to exactly one tenant.
      std::size_t attributed = 0;
      for (std::size_t k = 0; k < reg.size(); ++k) {
        attributed += reg.at(static_cast<int>(k)).latencies().count();
      }
      const LatencyRecorder* recorded = m.find_latency("sample_load_s");
      ASSERT_NE(recorded, nullptr);
      EXPECT_GT(recorded->count(), 0u);
      EXPECT_EQ(attributed, recorded->count());
    });
  }
}

TEST_F(MultiTenantTest, OneTenantDriverMatchesSimulatedTrainerBitForBit) {
  // Tenants run the trainer's own step: one tenant under the driver and a
  // SimulatedTrainer over the same mounted backend, both at unbounded
  // prefetch depth over a coalescing store, model the same epoch.
  TenantSpec spec;
  spec.name = "solo";
  spec.local_batch = 8;
  spec.seed = 22;
  const auto reader = cff_reader();
  const auto run = [&](bool through_driver) {
    fs_.reset_time_state();
    simmpi::Runtime rt(kRanks, machine_, /*seed=*/42);
    double seconds = 0;
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStoreConfig cfg = store_config();
      cfg.batch_fetch = core::BatchFetchMode::Coalesced;
      core::DDStore store(c, reader, client, cfg);
      TenantRegistry reg(store);
      TenantContext& t = reg.admit(spec);
      const DriverConfig dcfg;
      double mine = 0;
      if (through_driver) {
        MultiTenantDriver driver(c, reg, machine_, dcfg);
        mine = driver.run_epoch(0).front().epoch_seconds;
      } else {
        train::SimTrainerConfig tcfg;
        tcfg.input_dim = dcfg.input_dim;
        tcfg.output_dim = dcfg.output_dim;
        tcfg.prefetch_depth = train::StepPipeline::kUnboundedDepth;
        train::SimulatedTrainer trainer(c, t.backend(), t.sampler(), machine_,
                                        tcfg);
        mine = trainer.run_epoch(0).epoch_seconds;
      }
      if (c.rank() == 0) seconds = mine;
    });
    return seconds;
  };
  const double driven = run(true);
  EXPECT_GT(driven, 0.0);
  EXPECT_EQ(driven, run(false));
}

TEST_F(MultiTenantTest, RealLossCurvesBitIdenticalSoloVsInterleaved) {
  const auto reader = cff_reader();
  train::RealTrainerConfig base;
  base.gnn.input_dim = 6;  // AISD feature width
  base.gnn.hidden = 4;
  base.gnn.pna_layers = 1;
  base.gnn.fc_layers = 1;
  base.gnn.output_dim = 1;
  base.local_batch = 4;
  base.optimizer.lr = 3e-3;
  constexpr std::uint64_t kEpochs = 2;

  TenantSpec alice;
  alice.name = "alice";
  alice.mount_samples = kSamples / 2;
  alice.seed = 31;
  TenantSpec bob;
  bob.name = "bob";
  bob.mount_first = kSamples / 2;
  bob.mount_samples = kSamples / 2;
  bob.seed = 32;
  bob.weight = 3.0;

  // Solo runs: each tenant alone on a fresh store, plain run_epoch.
  std::vector<std::vector<double>> solo_losses(2);
  for (int which = 0; which < 2; ++which) {
    simmpi::Runtime rt(kRanks, machine_, 42);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStore store(c, reader, client, store_config());
      TenantRegistry reg(store);
      TenantContext& t = reg.admit(which == 0 ? alice : bob);
      train::RealTrainerConfig cfg = base;
      cfg.seed = t.spec().seed;
      train::RealTrainer trainer(c, t.backend(), cfg);
      std::vector<double> losses;
      for (std::uint64_t e = 0; e < kEpochs; ++e) {
        const auto r = trainer.run_epoch(e);
        losses.push_back(r.train_loss);
        losses.push_back(r.val_loss);
      }
      if (c.rank() == 0) {
        solo_losses[static_cast<std::size_t>(which)] = losses;
      }
    });
  }

  // Interleaved: both tenants share one store; the driver's arbiter
  // (with bob weighted 3x) interleaves their steps.
  std::vector<std::vector<double>> shared_losses(2);
  {
    simmpi::Runtime rt(kRanks, machine_, 42);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStore store(c, reader, client, store_config());
      TenantRegistry reg(store);
      TenantContext& ta = reg.admit(alice);
      TenantContext& tb = reg.admit(bob);
      train::RealTrainerConfig ca = base;
      ca.seed = ta.spec().seed;
      train::RealTrainerConfig cb = base;
      cb.seed = tb.spec().seed;
      train::RealTrainer tra(c, ta.backend(), ca);
      train::RealTrainer trb(c, tb.backend(), cb);
      MultiTenantDriver driver(c, reg, machine_);
      std::vector<std::vector<double>> losses(2);
      for (std::uint64_t e = 0; e < kEpochs; ++e) {
        const auto results = driver.run_real_epoch(e, {&tra, &trb});
        for (int k = 0; k < 2; ++k) {
          losses[static_cast<std::size_t>(k)].push_back(
              results[static_cast<std::size_t>(k)].train_loss);
          losses[static_cast<std::size_t>(k)].push_back(
              results[static_cast<std::size_t>(k)].val_loss);
        }
      }
      if (c.rank() == 0) {
        shared_losses = losses;
      }
    });
  }

  // Bit-identical, not approximately equal.
  EXPECT_EQ(solo_losses[0], shared_losses[0]) << "alice";
  EXPECT_EQ(solo_losses[1], shared_losses[1]) << "bob";
}

TEST_F(MultiTenantTest, GreedyTenantCannotStarveVictim) {
  QosPolicy policy;
  policy.starvation_bound = 8;
  policy.max_burst = 4;

  TenantSpec greedy;
  greedy.name = "greedy";
  greedy.local_batch = 16;
  greedy.seed = 41;
  greedy.weight = 100.0;
  TenantSpec victim;
  victim.name = "victim";
  victim.local_batch = 4;
  victim.seed = 42;
  victim.weight = 1.0;

  const auto solo = run_driver({victim}, 2, policy);
  const auto shared = run_driver({greedy, victim}, 2, policy);
  ASSERT_EQ(shared.size(), 2u);

  // The victim made progress, its wait never exceeded the bound, and its
  // p99 fetch latency stayed within a small factor of the solo run's.
  EXPECT_GT(shared[1].global_samples, 0u);
  EXPECT_LE(shared[1].max_wait_grants, policy.starvation_bound);
  EXPECT_GT(solo[0].p99_fetch_s, 0.0);
  EXPECT_LE(shared[1].p99_fetch_s, 3.0 * solo[0].p99_fetch_s)
      << "victim p99 " << shared[1].p99_fetch_s << " vs solo "
      << solo[0].p99_fetch_s;
  // Both tenants complete their epochs — weight shapes the interleaving
  // order (covered by the arbiter unit tests), never total progress.
  EXPECT_GT(shared[0].global_samples, 0u);
}

}  // namespace
}  // namespace dds::tenant

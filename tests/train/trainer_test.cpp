#include <gtest/gtest.h>

#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "formats/pff.hpp"
#include "train/real_trainer.hpp"
#include "train/sim_trainer.hpp"

namespace dds::train {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 128;

class TrainTest : public ::testing::Test {
 protected:
  TrainTest()
      : machine_(test_machine()),
        fs_(machine_.fs, /*nnodes=*/2),
        ds_(datagen::make_dataset(DatasetKind::Ising, kSamples, 3)) {
    formats::CffWriter::stage(fs_, "cff/ds", *ds_, 2);
  }

  fs::FsClient client_for(simmpi::Comm& c) {
    return fs::FsClient(fs_, machine_.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
  }

  formats::CffReader reader() {
    return formats::CffReader(fs_, "cff/ds",
                              ds_->spec().nominal_cff_sample_bytes());
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(TrainTest, DataLoaderYieldsAllBatchesThenEnds) {
  simmpi::Runtime rt(2, machine_);
  const auto r = reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    FileBackend backend(r, client, "CFF");
    GlobalShuffleSampler sampler(kSamples, 8, 1);
    DataLoader loader(backend, sampler, c.clock());
    loader.begin_epoch(0, c);
    std::uint64_t batches = 0;
    while (const auto batch = loader.next()) {
      EXPECT_EQ(batch->num_graphs, 8u);
      EXPECT_EQ(batch->num_nodes, 8u * 125u);
      ++batches;
    }
    EXPECT_EQ(batches, kSamples / (8 * 2));
    // The backend that read each sample recorded its latency.
    const LatencyRecorder* lat =
        backend.metrics()->find_latency("sample_load_s");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count(), batches * 8);
  });
}

TEST_F(TrainTest, SimulatedTrainerEpochReportSane) {
  simmpi::Runtime rt(4, machine_);
  const auto r = reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    core::DDStore store(c, r, client);
    DDStoreBackend backend(store);
    GlobalShuffleSampler sampler(kSamples, 4, 2);
    SimTrainerConfig cfg;
    cfg.input_dim = 2;
    cfg.output_dim = 1;
    SimulatedTrainer trainer(c, backend, sampler, machine_, cfg);
    const auto report = trainer.run_epoch(0);
    EXPECT_EQ(report.global_samples, kSamples / (4 * 4) * 16);
    EXPECT_GT(report.epoch_seconds, 0.0);
    EXPECT_GT(report.throughput, 0.0);
    EXPECT_GT(report.mean_profile.get(Phase::Load), 0.0);
    EXPECT_GT(report.mean_profile.get(Phase::Forward), 0.0);
    EXPECT_GT(report.mean_profile.get(Phase::GradComm), 0.0);
    // All ranks agree on the report.
    const auto t = c.allgather_untimed(report.epoch_seconds);
    for (const double v : t) EXPECT_DOUBLE_EQ(v, report.epoch_seconds);
  });
}

TEST_F(TrainTest, DDStoreFasterThanFileBackend) {
  // The headline claim at test scale: an epoch through DDStore beats an
  // epoch reading PFF files, in simulated time.
  formats::PffWriter::stage(fs_, "pff/ds", *ds_);
  const auto cff = reader();
  const formats::PffReader pff(fs_, "pff/ds", kSamples,
                               ds_->spec().nominal_pff_sample_bytes());
  double dds_time = 0, pff_time = 0;
  {
    simmpi::Runtime rt(4, machine_);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStore store(c, cff, client);
      DDStoreBackend backend(store);
      GlobalShuffleSampler sampler(kSamples, 4, 2);
      SimulatedTrainer trainer(c, backend, sampler, machine_, {});
      c.runtime().reset_time();  // exclude preload
      const auto rep = trainer.run_epoch(0);
      if (c.rank() == 0) dds_time = rep.epoch_seconds;
    });
  }
  {
    simmpi::Runtime rt(4, machine_);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      FileBackend backend(pff, client, "PFF");
      GlobalShuffleSampler sampler(kSamples, 4, 2);
      SimulatedTrainer trainer(c, backend, sampler, machine_, {});
      const auto rep = trainer.run_epoch(0);
      if (c.rank() == 0) pff_time = rep.epoch_seconds;
    });
  }
  EXPECT_LT(dds_time, pff_time);
}

TEST_F(TrainTest, GatherLatenciesCollectsAllRanks) {
  // Latencies are read on the host after the run: each rank's recorder,
  // merged in rank order, holds every load of the epoch.
  simmpi::Runtime rt(2, machine_);
  const auto r = reader();
  std::vector<LatencyRecorder> per_rank(2);
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    FileBackend backend(r, client, "CFF");
    GlobalShuffleSampler sampler(kSamples, 8, 4);
    SimulatedTrainer trainer(c, backend, sampler, machine_, {});
    trainer.run_epoch(0);
    per_rank[static_cast<std::size_t>(c.rank())] =
        *backend.metrics()->find_latency("sample_load_s");
  });
  LatencyRecorder all;
  for (const LatencyRecorder& lat : per_rank) {
    EXPECT_EQ(lat.count(), kSamples / (8 * 2) * 8);
    all.merge(lat);
  }
  EXPECT_EQ(all.count(), kSamples / (8 * 2) * 8 * 2);
  EXPECT_GT(all.median(), 0.0);
}

TEST_F(TrainTest, EpochCostsTheStepLoopAndTwoBarriers) {
  // Reporting adds no scheduling point: two trainer epochs switch fibers
  // exactly as often as the bare step loop between two barriers.
  constexpr int kRanks = 4;
  const auto r = reader();
  const auto switches = [&](bool trainer) {
    simmpi::Runtime rt(kRanks, machine_);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      FileBackend backend(r, client, "CFF");
      GlobalShuffleSampler sampler(kSamples, 8, 4);
      if (trainer) {
        SimulatedTrainer t(c, backend, sampler, machine_, {});
        for (std::uint64_t e = 0; e < 2; ++e) (void)t.run_epoch(e);
        return;
      }
      StepPipeline p(c, backend, sampler, machine_, {});
      for (std::uint64_t e = 0; e < 2; ++e) {
        c.barrier();
        p.begin_epoch(e);
        while (!p.done()) p.step();
        c.barrier();
      }
    });
    return rt.fiber_scheduler()->switch_count();
  };
  EXPECT_EQ(switches(true), switches(false));
}

TEST_F(TrainTest, GpuFreeIsEqualOnEveryRank) {
  // Each step's GPU ends when the shared gradient all-reduce does, so
  // however skewed the ranks' loads, every rank's GPU frees at the same
  // instant (the tenant driver reads its done time locally on this).
  constexpr int kRanks = 3;
  const auto r = reader();
  std::vector<double> gpu_free(kRanks);
  simmpi::Runtime rt(kRanks, machine_);
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    FileBackend backend(r, client, "CFF");
    GlobalShuffleSampler sampler(96, 8, 4);
    StepPipeline p(c, backend, sampler, machine_, {});
    c.barrier();
    p.begin_epoch(0);
    while (!p.done()) {
      c.clock().advance(1e-3 * c.rank());  // skewed CPU work before a load
      p.step();
    }
    gpu_free[static_cast<std::size_t>(c.rank())] = p.gpu_free();
  });
  EXPECT_GT(gpu_free[0], 0.0);
  for (const double t : gpu_free) EXPECT_EQ(t, gpu_free[0]);
}

TEST_F(TrainTest, RealTrainerLossDecreases) {
  simmpi::Runtime rt(2, machine_);
  const auto r = reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    FileBackend backend(r, client, "CFF");
    RealTrainerConfig cfg;
    cfg.gnn.input_dim = 2;
    cfg.gnn.hidden = 8;
    cfg.gnn.pna_layers = 1;
    cfg.gnn.fc_layers = 1;
    cfg.gnn.output_dim = 1;
    cfg.local_batch = 8;
    cfg.optimizer.lr = 3e-3;
    cfg.optimizer.weight_decay = 0.0;
    RealTrainer trainer(c, backend, cfg);
    EXPECT_EQ(trainer.train_size(), 102u);  // 80% of 128
    EXPECT_EQ(trainer.val_size() + trainer.test_size(), 26u);

    const auto first = trainer.run_epoch(0);
    TrainEpochResult last{};
    for (std::uint64_t e = 1; e < 8; ++e) last = trainer.run_epoch(e);
    EXPECT_LT(last.train_loss, first.train_loss);
    EXPECT_GT(first.val_loss, 0.0);
    EXPECT_GT(first.test_loss, 0.0);
    EXPECT_DOUBLE_EQ(last.lr, 3e-3);  // no plateau hit this early
  });
}

TEST_F(TrainTest, RealTrainerReplicasStayIdentical) {
  simmpi::Runtime rt(2, machine_);
  const auto r = reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    FileBackend backend(r, client, "CFF");
    RealTrainerConfig cfg;
    cfg.gnn.input_dim = 2;
    cfg.gnn.hidden = 4;
    cfg.gnn.pna_layers = 1;
    cfg.gnn.fc_layers = 0;
    cfg.local_batch = 4;
    RealTrainer trainer(c, backend, cfg);
    trainer.run_epoch(0);
    // After DDP steps, parameters must be identical across ranks.
    const auto params = trainer.model().parameters();
    float checksum = 0;
    for (const auto& p : params) {
      for (const float v : *p.value) checksum += v;
    }
    const auto sums = c.allgather_untimed(checksum);
    EXPECT_FLOAT_EQ(sums[0], sums[1]);
  });
}

TEST_F(TrainTest, SingleRankTrainingWorks) {
  simmpi::Runtime rt(1, machine_);
  const auto r = reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    FileBackend backend(r, client, "CFF");
    RealTrainerConfig cfg;
    cfg.gnn.input_dim = 2;
    cfg.gnn.hidden = 4;
    cfg.gnn.pna_layers = 1;
    cfg.gnn.fc_layers = 0;
    cfg.local_batch = 16;
    RealTrainer trainer(c, backend, cfg);
    const auto res = trainer.run_epoch(0);
    EXPECT_GT(res.train_loss, 0.0);
  });
}

/// Every rank's clock at the end of one real-training epoch.
struct RealClockCase {
  int nranks;
  GradReduction reduction;
  std::vector<double> clocks;
};

class RealTrainerClock : public TrainTest,
                         public ::testing::WithParamInterface<RealClockCase> {};

TEST_P(RealTrainerClock, EpochModeledTimeIsPinned) {
  // The GNN's math runs on the host and charges no virtual time, so a
  // change to its kernels must leave every rank's clock where it was.
  const RealClockCase& tc = GetParam();
  std::vector<double> clocks(static_cast<std::size_t>(tc.nranks));
  simmpi::Runtime rt(tc.nranks, machine_);
  const auto r = reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    FileBackend backend(r, client, "CFF");
    RealTrainerConfig cfg;
    cfg.gnn.input_dim = 2;
    cfg.gnn.hidden = 8;
    cfg.gnn.pna_layers = 1;
    cfg.gnn.fc_layers = 1;
    cfg.local_batch = 8;
    cfg.reduction = tc.reduction;
    RealTrainer trainer(c, backend, cfg);
    (void)trainer.run_epoch(0);
    clocks[static_cast<std::size_t>(c.rank())] = c.clock().now();
  });
  EXPECT_EQ(clocks, tc.clocks);
}

// Recorded before the GNN's dense loops were vectorized.
constexpr double kPerRank2 = 0.032809594150000038;
constexpr double kPerRank3 = 0.024864037450000029;
constexpr double kCanonical2 = 0.032848755750000048;
constexpr double kCanonical3 = 0.025772964525000039;

INSTANTIATE_TEST_SUITE_P(
    RanksAndReductions, RealTrainerClock,
    ::testing::Values(
        RealClockCase{2, GradReduction::PerRank, {kPerRank2, kPerRank2}},
        RealClockCase{3, GradReduction::PerRank,
                      {kPerRank3, kPerRank3, kPerRank3}},
        RealClockCase{2, GradReduction::Canonical, {kCanonical2, kCanonical2}},
        RealClockCase{3, GradReduction::Canonical,
                      {kCanonical3, kCanonical3, kCanonical3}}),
    [](const ::testing::TestParamInfo<RealClockCase>& info) {
      return std::string(info.param.reduction == GradReduction::PerRank
                             ? "PerRank"
                             : "Canonical") +
             std::to_string(info.param.nranks);
    });

}  // namespace
}  // namespace dds::train

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
    const auto t = c.allgather(report.epoch_seconds);
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
  simmpi::Runtime rt(2, machine_);
  const auto r = reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    FileBackend backend(r, client, "CFF");
    GlobalShuffleSampler sampler(kSamples, 8, 4);
    SimulatedTrainer trainer(c, backend, sampler, machine_, {});
    trainer.run_epoch(0);
    const auto all = trainer.gather_latencies();
    if (c.rank() == 0) {
      EXPECT_EQ(all.count(), kSamples / (8 * 2) * 8 * 2);
      EXPECT_GT(all.median(), 0.0);
    } else {
      EXPECT_EQ(all.count(), 0u);
    }
  });
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
    const auto sums = c.allgather(checksum);
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

}  // namespace
}  // namespace dds::train

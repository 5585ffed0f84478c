// The trainer's step pipeline: prefetch depth, the Load seconds it hides
// under GPU work, and the coalesced fetch planner under the trainer
// (coalesced reads with prefetch beat the per-sample serial baseline).
#include <gtest/gtest.h>


#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "train/sim_trainer.hpp"

namespace dds::train {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 128;
constexpr int kRanks = 4;

class PrefetchTest : public ::testing::Test {
 protected:
  PrefetchTest()
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

  /// One epoch through a DDStore backend on kRanks ranks; returns the
  /// rank-identical report.
  EpochReport run_epoch(core::BatchFetchMode mode, int depth) {
    EpochReport out;
    simmpi::Runtime rt(kRanks, machine_);
    const auto r = reader();
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      core::DDStoreConfig scfg;
      scfg.batch_fetch = mode;
      core::DDStore store(c, r, client, scfg);
      DDStoreBackend backend(store);
      GlobalShuffleSampler sampler(kSamples, 4, 2);
      SimTrainerConfig cfg;
      cfg.input_dim = 2;
      cfg.output_dim = 1;
      cfg.prefetch_depth = depth;
      SimulatedTrainer trainer(c, backend, sampler, machine_, cfg);
      const auto report = trainer.run_epoch(0);
      if (c.rank() == 0) out = report;
    });
    return out;
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(PrefetchTest, CoalescedPipelineReportsOverlapAndPlannerTraffic) {
  simmpi::Runtime rt(kRanks, machine_);
  const auto r = reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    core::DDStoreConfig scfg;
    scfg.batch_fetch = core::BatchFetchMode::Coalesced;
    core::DDStore store(c, r, client, scfg);
    DDStoreBackend backend(store);
    GlobalShuffleSampler sampler(kSamples, 4, 2);
    SimTrainerConfig cfg;
    cfg.input_dim = 2;
    cfg.output_dim = 1;
    cfg.prefetch_depth = 2;
    SimulatedTrainer trainer(c, backend, sampler, machine_, cfg);
    const auto report = trainer.run_epoch(0);
    EXPECT_EQ(report.global_samples, kSamples / (4 * 4) * 16);
    EXPECT_GT(report.epoch_seconds, 0.0);
    EXPECT_GT(report.throughput, 0.0);
    EXPECT_GT(report.overlap_hidden_s, 0.0);
    // The coalesced planner ran: traffic counters are populated and every
    // batch cost at most one lock epoch per distinct target.
    EXPECT_GT(report.metric("coalesced_transfers"), 0u);
    EXPECT_GT(report.metric("lock_epochs_saved"), 0u);
    EXPECT_EQ(report.metric("rma_transfers"),
              report.metric("coalesced_transfers"));
    EXPECT_EQ(report.metric("coalesced_fallbacks"), 0u);
    // The store recorded one load latency per sample it served.
    const LatencyRecorder* lat =
        backend.metrics()->find_latency("sample_load_s");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count(), sampler.steps_per_epoch() * 4);
    // All ranks agree on the report.
    const auto t = c.allgather_untimed(report.epoch_seconds);
    for (const double v : t) EXPECT_DOUBLE_EQ(v, report.epoch_seconds);
  });
}

TEST_F(PrefetchTest, PerSampleOverlapIsZeroWhenSerialAndBoundedByLoad) {
  // Depth 1 loads batch s only after the GPU finished batch s - 1, so no
  // Load second can hide; depth 2 loads under the GPU's previous step, and
  // a step can hide at most its own Load seconds.
  const auto serial = run_epoch(core::BatchFetchMode::PerSample, 1);
  const auto overlapped = run_epoch(core::BatchFetchMode::PerSample, 2);
  EXPECT_EQ(serial.overlap_hidden_s, 0.0);
  EXPECT_GT(overlapped.overlap_hidden_s, 0.0);
  const double load_s = overlapped.mean_profile.get(Phase::Load) * kRanks;
  EXPECT_LE(overlapped.overlap_hidden_s, load_s * (1 + 1e-12));
  EXPECT_LT(overlapped.epoch_seconds, serial.epoch_seconds);
  // Depth moves when a sample is read, never which samples or how.
  ASSERT_EQ(serial.metrics.size(), overlapped.metrics.size());
  for (std::size_t i = 0; i < serial.metrics.size(); ++i) {
    EXPECT_EQ(serial.metrics[i].name, overlapped.metrics[i].name);
    EXPECT_EQ(serial.metrics[i].value, overlapped.metrics[i].value)
        << serial.metrics[i].name;
  }
  EXPECT_GT(serial.metric("rma_transfers"), 0u);
}

TEST_F(PrefetchTest, CoalescedPrefetchBeatsSerialPerSampleEndToEnd) {
  // The tentpole claim at test scale, through the full trainer: coalesced
  // fetches at depth 2 strictly beat the per-sample serial path (depth 1).
  const auto serial = run_epoch(core::BatchFetchMode::PerSample, 1);
  const auto prefetched = run_epoch(core::BatchFetchMode::Coalesced, 2);
  EXPECT_LT(prefetched.epoch_seconds, serial.epoch_seconds);
}

}  // namespace
}  // namespace dds::train

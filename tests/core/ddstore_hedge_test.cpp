// Hedged-fetch path under injected gray failures: hedges fire only past a
// calibrated deadline, cancellation accounting never double-counts payload
// bytes, twin payloads always agree, and FaultInjector::revive restores a
// rank's breaker/health eligibility without any collective reset.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 64;
constexpr int kRanks = 4;    // width 2: groups {0,1} and {2,3}
constexpr int kWidth = 2;
constexpr int kStraggler = 1;

class DDStoreHedgeTest : public ::testing::Test {
 protected:
  DDStoreHedgeTest()
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

  void expect_all_samples_intact(DDStore& store) {
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      EXPECT_EQ(store.get(id), ds_->make(id)) << "sample " << id;
    }
  }

  /// Cross-rank sums of the counters these tests audit, captured on rank 0.
  struct Totals {
    std::uint64_t bytes_fetched = 0;
    std::uint64_t hedged = 0;
    std::uint64_t wins = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t steers = 0;
    std::uint64_t retries = 0;
    std::uint64_t degraded = 0;
  };

  /// Runs `passes` full-dataset passes in a deterministic runtime with
  /// `fc` armed (straggler onset and all), hedging on or off, and returns
  /// the job-wide counter totals.  Virtual time is bit-reproducible, so a
  /// slowdown window measured against one run's timeline lands at the same
  /// point in every other run's pass 0.
  Totals run_straggler(const faults::FaultConfig& fc, bool hedge_on,
                       int passes) {
    fs_.reset_time_state();
    Totals totals;
    simmpi::Runtime rt(kRanks, machine_, /*seed=*/42);
    if (fc.any()) {
      rt.set_fault_injector(
          std::make_shared<faults::FaultInjector>(fc, kRanks));
    }
    const auto reader = cff_reader();
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg;
      cfg.width = kWidth;
      cfg.hedge = hedge_on;
      DDStore store(c, reader, client, cfg);
      for (int pass = 0; pass < passes; ++pass) {
        expect_all_samples_intact(store);
      }
      const auto& st = store.stats();
      const auto sum = [&](std::uint64_t v) {
        return c.allreduce(v, simmpi::Op::Sum);
      };
      const Totals t{sum(st.bytes_fetched),
                     sum(st.hedged_fetches),
                     sum(st.hedge_wins),
                     sum(st.hedge_mismatches),
                     sum(st.hedge_cancelled_bytes),
                     sum(st.quarantine_steers),
                     sum(st.retries),
                     sum(st.degraded_reads)};
      if (c.rank() == 0) {
        totals = t;
      }
      store.fence();
    });
    return totals;
  }

  /// Measures the virtual time at which one fault-free full-dataset pass
  /// (plus preload) has completed on every rank — the straggler onset the
  /// tests below use, so pass 0 always calibrates the hedging deadlines
  /// before anything degrades.
  double measure_calibration_horizon() {
    fs_.reset_time_state();
    double horizon = 0.0;
    simmpi::Runtime rt(kRanks, machine_, 42);
    const auto reader = cff_reader();
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg;
      cfg.width = kWidth;
      DDStore store(c, reader, client, cfg);
      for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get(id);
      // Untimed exchange: the measurement itself must not advance clocks.
      const auto ends = c.allgather_untimed(c.clock().now());
      const double t = *std::max_element(ends.begin(), ends.end());
      if (c.rank() == 0) {
        horizon = t;
      }
      store.fence();
    });
    return horizon;
  }

  faults::FaultConfig straggler_after(double onset_s) const {
    faults::FaultConfig fc;
    faults::SlowdownPhase p;
    p.rank = kStraggler;
    p.factor = 10.0;
    p.start_s = onset_s;
    fc.slowdowns.push_back(p);
    return fc;
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(DDStoreHedgeTest, FaultFreeRunNeverHedges) {
  const Totals t = run_straggler(faults::FaultConfig{}, /*hedge_on=*/true,
                                 /*passes=*/2);
  EXPECT_EQ(t.hedged, 0u);
  EXPECT_EQ(t.wins, 0u);
  EXPECT_EQ(t.mismatches, 0u);
  EXPECT_EQ(t.cancelled, 0u);
  EXPECT_EQ(t.steers, 0u);
  EXPECT_EQ(t.retries, 0u);
}

TEST_F(DDStoreHedgeTest, StragglerFiresHedgesWithConsistentAccounting) {
  const double onset = measure_calibration_horizon();
  ASSERT_GT(onset, 0.0);
  const auto fc = straggler_after(onset);
  const Totals on = run_straggler(fc, /*hedge_on=*/true, /*passes=*/3);

  // Pass 0 calibrated every deadline before the straggler degraded, so
  // passes 1-2 must have hedged around it.
  EXPECT_GT(on.hedged, 0u);
  EXPECT_GT(on.wins, 0u);
  EXPECT_LE(on.wins, on.hedged);
  // A slowdown delays but never damages: both legs of every hedge deliver
  // the same bytes, and the losing leg's payload is accounted as
  // cancelled, not fetched.
  EXPECT_EQ(on.mismatches, 0u);
  EXPECT_GT(on.cancelled, 0u);
  EXPECT_EQ(on.retries, 0u);
  EXPECT_EQ(on.degraded, 0u);
}

TEST_F(DDStoreHedgeTest, HedgingNeverDoubleCountsPayloadBytes) {
  const double onset = measure_calibration_horizon();
  const auto fc = straggler_after(onset);
  const Totals on = run_straggler(fc, /*hedge_on=*/true, /*passes=*/3);
  const Totals off = run_straggler(fc, /*hedge_on=*/false, /*passes=*/3);

  ASSERT_GT(on.hedged, 0u);
  EXPECT_EQ(off.hedged, 0u);  // registered, never bumped when off
  EXPECT_EQ(off.cancelled, 0u);
  // Same accesses, same faults: bytes_fetched records each sample once
  // regardless of how many hedge legs raced — the redundant bytes live
  // only in hedge_cancelled_bytes.
  EXPECT_EQ(on.bytes_fetched, off.bytes_fetched);
}

TEST_F(DDStoreHedgeTest, ReviveRestoresBreakerAndHealthEligibility) {
  fs_.reset_time_state();
  faults::FaultConfig fc;
  // Dead from t=0; twins carry its chunk.
  fc.deaths.push_back(faults::DeathPhase{kStraggler, 0.0});
  auto injector = std::make_shared<faults::FaultInjector>(fc, kRanks);
  simmpi::Runtime rt(kRanks, machine_, 42);
  rt.set_fault_injector(injector);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = kWidth;
    cfg.hedge = true;
    DDStore store(c, reader, client, cfg);

    expect_all_samples_intact(store);  // served via failover to the twin
    const std::uint64_t failovers_before = store.stats().failovers;
    if (c.rank() == 0) {
      // The dead partner's breaker is open, so its health reads zero —
      // exactly the signal the elastic driver aggregates.
      EXPECT_GT(failovers_before, 0u);
      EXPECT_GT(store.stats().breaker_trips, 0u);
      EXPECT_EQ(store.health_score(kStraggler), 0.0);
    }

    c.barrier();
    if (c.rank() == 0) injector->revive(kStraggler);
    c.barrier();

    // Eligibility is restored immediately — no cooldown to wait out, no
    // collective reset: the bumped revive epoch makes the open breaker
    // read as closed before any fetch lazily clears the stale state.
    EXPECT_GT(store.health_score(kStraggler), 0.0);

    expect_all_samples_intact(store);
    if (c.rank() == 0) {
      // The revived rank serves as primary again: no new failovers, and
      // its health recovers once fresh observations flow.
      EXPECT_EQ(store.stats().failovers, failovers_before);
      EXPECT_GT(store.health_score(kStraggler), 0.5);
      EXPECT_EQ(store.stats().hedge_mismatches, 0u);
    }
    store.fence();
  });
}

}  // namespace
}  // namespace dds::core

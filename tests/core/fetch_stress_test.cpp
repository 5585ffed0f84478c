// FetchEngine stress: many ranks interleaving on the full staged read
// path — planning, cache churn, coalesced RMA, injected faults, and
// twin-aliased chunk buffers — with ranks' batches overlapping on the same
// hot ids.  Validation is byte-level: whatever the interleaving, every rank
// decodes ground truth.  A counter audit checks that every lock epoch the
// fetch path opens brackets exactly one window transfer, in every
// configuration.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "faults/injector.hpp"
#include "formats/cff.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 96;
constexpr int kRanks = 8;

class FetchStressTest : public ::testing::Test {
 protected:
  FetchStressTest()
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

  /// Deterministic per-rank id stream that guarantees cross-rank overlap
  /// (every rank keeps returning to the same hot ids) plus duplicates
  /// inside a batch.
  static std::vector<std::uint64_t> batch_ids(int rank, int epoch, int step) {
    std::vector<std::uint64_t> ids;
    ids.reserve(16);
    for (int i = 0; i < 16; ++i) {
      const auto mix = static_cast<std::uint64_t>(
          29 * rank + 41 * epoch + 13 * step + 7 * i);
      ids.push_back(i % 5 == 4 ? ids[0] : mix % kSamples);
    }
    return ids;
  }

  /// Runs a few epochs of overlapping batches through one store config and
  /// checks every decoded sample against ground truth.
  void hammer(simmpi::Comm& c, const formats::CffReader& reader,
              DDStoreConfig cfg) {
    auto client = client_for(c);
    DDStore store(c, reader, client, cfg);
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (int step = 0; step < 4; ++step) {
        const auto ids = batch_ids(c.rank(), epoch, step);
        const auto batch = store.get_batch(ids);
        ASSERT_EQ(batch.size(), ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          ASSERT_EQ(batch[i], ds_->make(ids[i]))
              << "rank " << c.rank() << " epoch " << epoch << " sample "
              << ids[i];
        }
      }
      store.fence();
      store.reset_stats();
    }
  }

  /// A cache capacity around a third of the dataset, which keeps the LRU
  /// churning.
  static std::uint64_t churn_capacity(const formats::CffReader& reader) {
    std::uint64_t capacity = 0;
    for (std::uint64_t id = 0; id < kSamples / 3; ++id) {
      capacity += reader.read_bytes_raw(id).size();
    }
    return capacity;
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

TEST_F(FetchStressTest, AllBatchModesConcurrentlyWithCacheAndFaults) {
  simmpi::Runtime rt(kRanks, machine_);
  faults::FaultConfig fc;
  fc.rma_fail_prob = 0.1;
  fc.rma_corrupt_prob = 0.05;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, kRanks));
  const auto reader = cff_reader();
  const std::uint64_t capacity = churn_capacity(reader);
  rt.run([&](simmpi::Comm& c) {
    for (const BatchFetchMode mode :
         {BatchFetchMode::PerSample, BatchFetchMode::Coalesced}) {
      DDStoreConfig cfg;
      cfg.width = 2;
      cfg.batch_fetch = mode;
      cfg.cache_capacity_bytes = capacity;
      hammer(c, reader, cfg);
    }
  });
}

// Every shared-lock epoch on the fetch path brackets exactly one window
// transfer — per-sample gets, coalesced getvs, retries, failovers and
// hedged legs alike; cache and staged-set hits and promotions take none.
TEST_F(FetchStressTest, EveryLockEpochBracketsOneTransfer) {
  const auto reader = cff_reader();
  enum class Variant { Plain, Cache, Tiered, HedgeUnderFaults };
  for (const BatchFetchMode mode :
       {BatchFetchMode::PerSample, BatchFetchMode::Coalesced}) {
    for (const Variant variant : {Variant::Plain, Variant::Cache,
                                  Variant::Tiered, Variant::HedgeUnderFaults}) {
      SCOPED_TRACE(::testing::Message()
                   << (mode == BatchFetchMode::PerSample ? "PerSample"
                                                         : "Coalesced")
                   << " variant " << static_cast<int>(variant));
      DDStoreConfig cfg;
      cfg.width = 4;
      cfg.batch_fetch = mode;
      simmpi::Runtime rt(kRanks, machine_);
      switch (variant) {
        case Variant::Plain:
          break;
        case Variant::Cache:
          cfg.cache_capacity_bytes = churn_capacity(reader);
          break;
        case Variant::Tiered:
          cfg.tiered.hot_fraction = 0.5;
          break;
        case Variant::HedgeUnderFaults: {
          cfg.hedge = true;
          faults::FaultConfig fc;
          fc.rma_fail_prob = 0.1;
          fc.rma_corrupt_prob = 0.05;
          fc.links.push_back(faults::LinkPhase{.loss_prob = 0.05,
                                               .jitter_mean_s = 20e-6});
          rt.set_fault_injector(
              std::make_shared<faults::FaultInjector>(fc, kRanks));
          break;
        }
      }
      rt.run([&](simmpi::Comm& c) {
        auto client = client_for(c);
        DDStore store(c, reader, client, cfg);
        Rng rng = Rng(11).stream(static_cast<std::uint64_t>(c.rank()));
        for (int step = 0; step < 3; ++step) {
          const std::vector<std::uint64_t> shuffled = rng.permutation(kSamples);
          const std::vector<std::uint64_t> ids(shuffled.begin(),
                                               shuffled.begin() + 16);
          const auto batch = store.get_batch(ids);
          ASSERT_EQ(batch.size(), ids.size());
          for (std::size_t i = 0; i < ids.size(); ++i) {
            ASSERT_EQ(batch[i], ds_->make(ids[i])) << "rank " << c.rank();
          }
        }
        const auto& st = store.stats();
        EXPECT_GT(st.rma_transfers, 0u) << "rank " << c.rank();
        EXPECT_EQ(st.lock_epochs, st.rma_transfers) << "rank " << c.rank();
        store.fence();
      });
    }
  }
}

TEST_F(FetchStressTest, TwinAliasedChunksUnderConcurrentCachedReads) {
  // width 4 over 8 ranks: two replica groups whose members alias the same
  // physical chunk buffers.  Both groups read everything concurrently
  // while their private caches churn.
  simmpi::Runtime rt(kRanks, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 4;
    cfg.batch_fetch = BatchFetchMode::Coalesced;
    cfg.cache_capacity_bytes = std::numeric_limits<std::uint64_t>::max();
    DDStore store(c, reader, client, cfg);
    for (int round = 0; round < 2; ++round) {
      for (std::uint64_t id = 0; id < kSamples; ++id) {
        const std::uint64_t pick =
            (id + static_cast<std::uint64_t>(c.rank()) * 11) % kSamples;
        ASSERT_EQ(store.get(pick), ds_->make(pick));
      }
    }
    // Second round was fully cache-resident.
    EXPECT_GE(store.stats().cache_hits, kSamples);
    store.fence();
  });
}

}  // namespace
}  // namespace dds::core

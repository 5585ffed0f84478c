// Tiered-store tests: the hot/cold Layout partition, byte identity of
// delivered samples across hot fractions (tiering changes *when* bytes
// arrive, never *which* bytes), staging-queue accounting and backpressure,
// staged-set promotion, the reset_stats contract (staged-set warmth is
// state, not a statistic), and TieredConfig validation.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using model::test_machine;

constexpr std::uint64_t kSamples = 64;

class TieredStoreTest : public ::testing::Test {
 protected:
  TieredStoreTest()
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

  static DDStoreConfig tiered_config(double hot_fraction, int depth = 8) {
    DDStoreConfig cfg;
    cfg.tiered.hot_fraction = hot_fraction;
    cfg.tiered.staging_depth = depth;
    return cfg;
  }

  model::MachineConfig machine_;
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
};

// ---- configuration validation --------------------------------------------

TEST_F(TieredStoreTest, RejectsOutOfRangeHotFraction) {
  const auto reader = cff_reader();
  for (const double bad : {0.0, -0.25, 1.5}) {
    simmpi::Runtime rt(1, machine_);
    EXPECT_THROW(rt.run([&](simmpi::Comm& c) {
                   auto client = client_for(c);
                   DDStore store(c, reader, client, tiered_config(bad));
                 }),
                 ConfigError)
        << "hot_fraction " << bad;
  }
}

TEST_F(TieredStoreTest, RejectsNonPositiveStagingDepth) {
  const auto reader = cff_reader();
  for (const int bad : {0, -3}) {
    simmpi::Runtime rt(1, machine_);
    EXPECT_THROW(rt.run([&](simmpi::Comm& c) {
                   auto client = client_for(c);
                   DDStore store(c, reader, client, tiered_config(0.5, bad));
                 }),
                 ConfigError)
        << "staging_depth " << bad;
  }
}

TEST_F(TieredStoreTest, DefaultConfigHasNoStagingStage) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client);
    EXPECT_EQ(store.staging(), nullptr);
    EXPECT_FALSE(store.layout().tiered());
    // Every sample is hot, so the tier counters are never bumped.
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      EXPECT_TRUE(store.layout().is_hot(id));
    }
    (void)store.get_bytes(0);
    EXPECT_EQ(store.stats().cold_misses, 0u);
    EXPECT_EQ(store.stats().staged_bytes, 0u);
  });
}

// ---- the hot/cold Layout partition ---------------------------------------

TEST_F(TieredStoreTest, HotSamplesFormAStoragePrefix) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client, tiered_config(0.5));
    const Layout& layout = store.layout();
    ASSERT_TRUE(layout.tiered());
    EXPECT_DOUBLE_EQ(layout.hot_fraction(), 0.5);
    for (int owner = 0; owner < layout.width(); ++owner) {
      const std::uint64_t budget = layout.hot_bytes(owner);
      EXPECT_LE(budget, layout.chunk_bytes(owner));
      EXPECT_GT(budget, 0u);
      // Walking the chunk in storage order, hotness must flip at most once
      // (hot prefix, cold suffix) and agree with the per-owner summaries.
      bool seen_cold = false;
      std::uint64_t hot_count = 0, hot_bytes = 0;
      for (const std::uint64_t id : layout.assignment().ids_of(owner)) {
        if (layout.is_hot(id)) {
          EXPECT_FALSE(seen_cold) << "hot sample after a cold one";
          ++hot_count;
          hot_bytes += layout.registry().lookup(id).length;
        } else {
          seen_cold = true;
        }
      }
      EXPECT_EQ(hot_count, layout.hot_samples_of(owner));
      EXPECT_EQ(hot_bytes, layout.hot_prefix_bytes(owner));
      EXPECT_LE(hot_bytes, budget);
      EXPECT_LT(hot_count, layout.assignment().chunk_size(owner))
          << "a 0.5 hot fraction must leave some samples cold";
    }
  });
}

// ---- byte identity across hot fractions ----------------------------------

TEST_F(TieredStoreTest, SamplesAreByteIdenticalAcrossHotFractions) {
  const auto reader = cff_reader();
  for (const double hf : {1.0, 0.5, 0.25}) {
    simmpi::Runtime rt(4, machine_);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg = tiered_config(hf);
      cfg.batch_fetch = BatchFetchMode::Coalesced;
      DDStore store(c, reader, client, cfg);
      // Single-sample path.
      for (std::uint64_t id = 0; id < kSamples; ++id) {
        EXPECT_EQ(store.get(id), ds_->make(id))
            << "hot_fraction " << hf << " id " << id;
      }
      // Planned-batch path, duplicates included.
      const std::vector<std::uint64_t> ids = {3, 60, 19, 42, 7, 42, 3, 25};
      const auto batch = store.get_batch(ids);
      ASSERT_EQ(batch.size(), ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(batch[i], ds_->make(ids[i])) << "hot_fraction " << hf;
      }
    });
  }
}

// ---- staging accounting ---------------------------------------------------

TEST_F(TieredStoreTest, ColdReadsAreCountedAndPromoted) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg = tiered_config(0.25);
    // The auto staged-set budget is the rank's own cold complement; this
    // sweep touches every owner's cold samples, so size the set explicitly
    // to observe promotion without LRU thrash.
    cfg.tiered.staged_set_bytes = 4 * MiB;
    DDStore store(c, reader, client, cfg);
    ASSERT_NE(store.staging(), nullptr);
    std::uint64_t cold = 0;
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      if (!store.layout().is_hot(id)) ++cold;
      (void)store.get_bytes(id);
    }
    ASSERT_GT(cold, 0u);
    const auto& st = store.stats();
    EXPECT_EQ(st.cold_misses, cold);
    EXPECT_GT(st.staged_bytes, 0u);
    EXPECT_EQ(st.staged_hits, 0u);  // first pass: every cold id missed
    // Promote admission: drained samples landed in the staged set, so a
    // second pass over the same ids is all staged hits, no device reads.
    EXPECT_GT(store.staging()->staged_set().entries(), 0u);
    for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get_bytes(id);
    EXPECT_EQ(store.stats().cold_misses, cold);  // unchanged
    EXPECT_GT(store.stats().staged_hits, 0u);
    EXPECT_EQ(store.staging()->inflight(), 0u);
  });
}

TEST_F(TieredStoreTest, ShallowQueueBackpressuresAndCostsMore) {
  const auto reader = cff_reader();
  const auto epoch_seconds = [&](int depth) {
    double elapsed = 0.0;
    simmpi::Runtime rt(4, machine_);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg = tiered_config(0.25, depth);
      cfg.batch_fetch = BatchFetchMode::Coalesced;
      DDStore store(c, reader, client, cfg);
      std::vector<std::uint64_t> ids(kSamples);
      for (std::uint64_t id = 0; id < kSamples; ++id) ids[id] = id;
      const double t0 = c.clock().now();
      (void)store.get_batch(ids);
      if (c.rank() == 0) {
        elapsed = c.clock().now() - t0;
        EXPECT_EQ(store.stats().stage_backpressure_delays > 0, depth == 1)
            << "depth " << depth;
      }
    });
    return elapsed;
  };
  // 64 ids -> 48 cold misses per batch: depth 64 never fills its issue
  // window (no backpressure), depth 1 serializes every read.
  const double deep = epoch_seconds(64);
  const double shallow = epoch_seconds(1);
  EXPECT_GT(deep, 0.0);
  // A depth-1 queue serializes every device read; a deep queue overlaps
  // them behind the batch's hot RMA transfers.
  EXPECT_GT(shallow, deep);
}

TEST_F(TieredStoreTest, ColdMissIsSlowerThanHotFetchAndStagedHitIsCheap) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client, tiered_config(0.5));
    const Layout& layout = store.layout();
    std::uint64_t hot_id = kSamples, cold_id = kSamples;
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      if (layout.is_hot(id)) {
        hot_id = id;
      } else if (cold_id == kSamples) {
        cold_id = id;
      }
    }
    ASSERT_LT(hot_id, kSamples);
    ASSERT_LT(cold_id, kSamples);
    const auto timed = [&](std::uint64_t id) {
      const double t0 = c.clock().now();
      (void)store.get_bytes(id);
      return c.clock().now() - t0;
    };
    const double hot = timed(hot_id);
    const double cold_miss = timed(cold_id);
    const double staged_hit = timed(cold_id);
    EXPECT_GT(cold_miss, hot) << "a storage read must cost more than RMA";
    EXPECT_LT(staged_hit, cold_miss);
    EXPECT_GT(staged_hit, 0.0);
  });
}

// ---- reset_stats contract -------------------------------------------------

TEST_F(TieredStoreTest, ResetStatsPreservesStagedSetWarmth) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStore store(c, reader, client, tiered_config(0.25));
    for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get_bytes(id);
    ASSERT_GT(store.stats().cold_misses, 0u);
    const std::size_t warm_entries = store.staging()->staged_set().entries();
    const auto warm_ids = store.staging()->staged_set().ids_mru_to_lru();
    ASSERT_GT(warm_entries, 0u);

    store.reset_stats();

    // Tier counters are statistics: zeroed...
    const auto& st = store.stats();
    EXPECT_EQ(st.cold_misses, 0u);
    EXPECT_EQ(st.staged_hits, 0u);
    EXPECT_EQ(st.staged_bytes, 0u);
    EXPECT_EQ(st.stage_backpressure_delays, 0u);
    // ...but the staged set is state, exactly like cache warmth: contents
    // and recency survive, so a staged id hits without a device read.
    EXPECT_EQ(store.staging()->staged_set().entries(), warm_entries);
    EXPECT_EQ(store.staging()->staged_set().ids_mru_to_lru(), warm_ids);
    (void)store.get_bytes(warm_ids.front());
    EXPECT_EQ(store.stats().staged_hits, 1u);
    EXPECT_EQ(store.stats().cold_misses, 0u);
  });
}

}  // namespace
}  // namespace dds::core

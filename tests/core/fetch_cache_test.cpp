// Cache stage tests: SampleCache LRU mechanics, byte-identity of cached
// vs RMA-fetched payloads under injected faults, determinism of the
// hit/miss sequence across replication widths, and the reset_stats
// contract (preload facts and cache capacity/warmth survive).
#include "core/fetch/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <list>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"

namespace dds::core {
namespace {

using datagen::DatasetKind;
using fetch::SampleCache;
using model::test_machine;

constexpr std::uint64_t kSamples = 64;
constexpr std::uint64_t kUnbounded =
    std::numeric_limits<std::uint64_t>::max();

ByteBuffer make_bytes(std::size_t n, std::uint8_t fill) {
  return ByteBuffer(n, static_cast<std::byte>(fill));
}

// ---- SampleCache unit tests ----------------------------------------------

TEST(SampleCacheTest, ZeroCapacityDisablesTheStage) {
  SampleCache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(SampleCacheTest, LookupPromotesAndEvictionIsLeastRecentlyUsed) {
  SampleCache cache(3);
  cache.insert(1, make_bytes(1, 0xa1));
  cache.insert(2, make_bytes(1, 0xa2));
  cache.insert(3, make_bytes(1, 0xa3));
  ASSERT_TRUE(cache.lookup(1).has_value());  // promote 1 over 2 and 3
  EXPECT_EQ(cache.insert(4, make_bytes(1, 0xa4)), 1u);
  EXPECT_FALSE(cache.contains(2));  // 2 was least recently used
  EXPECT_EQ(cache.ids_mru_to_lru(), (std::vector<std::uint64_t>{4, 1, 3}));
}

TEST(SampleCacheTest, ContainsDoesNotPromote) {
  SampleCache cache(3);
  cache.insert(1, make_bytes(1, 0xb1));
  cache.insert(2, make_bytes(1, 0xb2));
  cache.insert(3, make_bytes(1, 0xb3));
  EXPECT_TRUE(cache.contains(1));  // residency probe must not touch LRU
  cache.insert(4, make_bytes(1, 0xb4));
  EXPECT_FALSE(cache.contains(1));  // 1 stayed least recently used
  EXPECT_TRUE(cache.contains(2));
}

TEST(SampleCacheTest, OversizedPayloadIsRejectedWithoutEvicting) {
  SampleCache cache(4);
  cache.insert(1, make_bytes(2, 0xc1));
  EXPECT_EQ(cache.insert(2, make_bytes(8, 0xc2)), 0u);
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));  // nothing was evicted for a lost cause
  EXPECT_EQ(cache.size_bytes(), 2u);
}

TEST(SampleCacheTest, ReinsertRefreshesBytesAndRecency) {
  SampleCache cache(8);
  cache.insert(1, make_bytes(2, 0xd1));
  cache.insert(2, make_bytes(2, 0xd2));
  cache.insert(1, make_bytes(3, 0xdd));  // refresh: new bytes, back to MRU
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(ByteBuffer(hit->begin(), hit->end()), make_bytes(3, 0xdd));
  EXPECT_EQ(cache.size_bytes(), 5u);
  EXPECT_EQ(cache.ids_mru_to_lru(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(SampleCacheTest, InsertReportsHowManyEntriesWereEvicted) {
  SampleCache cache(4);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_EQ(cache.insert(id, make_bytes(1, 0xe0)), 0u);
  }
  EXPECT_EQ(cache.insert(5, make_bytes(3, 0xe5)), 3u);
  EXPECT_EQ(cache.ids_mru_to_lru(), (std::vector<std::uint64_t>{5, 4}));
  EXPECT_EQ(cache.size_bytes(), 4u);
}

/// The list-plus-map LRU that SampleCache's slab replaced, kept as the
/// reference the slab must match operation for operation.
class ReferenceCache {
 public:
  explicit ReferenceCache(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  bool contains(std::uint64_t id) const {
    return index_.find(id) != index_.end();
  }

  const ByteBuffer* lookup(std::uint64_t id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &lru_.front().bytes;
  }

  std::size_t insert(std::uint64_t id, ByteSpan bytes) {
    if (bytes.size() > capacity_) return 0;
    const auto it = index_.find(id);
    if (it != index_.end()) {
      size_ -= it->second->bytes.size();
      it->second->bytes.assign(bytes.begin(), bytes.end());
      size_ += bytes.size();
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.push_front(Entry{id, ByteBuffer(bytes.begin(), bytes.end())});
      index_.emplace(id, lru_.begin());
      size_ += bytes.size();
    }
    std::size_t evicted = 0;
    while (size_ > capacity_) {
      const Entry& victim = lru_.back();
      size_ -= victim.bytes.size();
      index_.erase(victim.id);
      lru_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  std::uint64_t size_bytes() const { return size_; }
  std::size_t entries() const { return lru_.size(); }

  std::vector<std::uint64_t> ids_mru_to_lru() const {
    std::vector<std::uint64_t> out;
    for (const Entry& e : lru_) out.push_back(e.id);
    return out;
  }

 private:
  struct Entry {
    std::uint64_t id;
    ByteBuffer bytes;
  };

  std::uint64_t capacity_;
  std::uint64_t size_ = 0;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

TEST(SampleCacheTest, MatchesTheListAndMapReferenceOperationForOperation) {
  constexpr std::uint64_t kKiB = 1024;
  // Disabled, one ~3 KB payload, and perfbench's per-rank 2 MiB.
  for (const std::uint64_t capacity : {std::uint64_t{0}, 3 * kKiB,
                                       2 * kKiB * kKiB}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    SampleCache cache(capacity);
    ReferenceCache ref(capacity);
    Rng rng(20261019 + capacity);
    std::vector<std::uint64_t> resident;
    for (int op = 0; op < 20'000; ++op) {
      // A resident id (so inserts re-insert), a dense shard-like id, or an
      // arbitrary 64-bit id.
      const double pick = rng.uniform();
      const std::uint64_t id =
          pick < 0.3 && !resident.empty()
              ? resident[rng.uniform_u64(resident.size())]
              : (pick < 0.8 ? rng.uniform_u64(3000) : rng.next());
      const double dice = rng.uniform();
      if (dice < 0.25) {
        ASSERT_EQ(cache.contains(id), ref.contains(id)) << "op " << op;
      } else if (dice < 0.6) {
        const auto got = cache.lookup(id);
        const ByteBuffer* want = ref.lookup(id);
        ASSERT_EQ(got.has_value(), want != nullptr) << "op " << op;
        if (want != nullptr) {
          ASSERT_TRUE(std::equal(got->begin(), got->end(), want->begin(),
                                 want->end()))
              << "op " << op;
        }
      } else {
        // Payloads of 1-5 KB, and now and then one larger than the cache.
        ByteBuffer payload(kKiB + rng.uniform_u64(4 * kKiB + 1));
        if (rng.uniform() < 0.02) {
          payload.assign(capacity + 1 + rng.uniform_u64(64), std::byte{0x5a});
        } else {
          for (std::size_t i = 0; i < payload.size(); i += 8) {
            const std::uint64_t word = rng.next();
            std::memcpy(payload.data() + i, &word,
                        std::min<std::size_t>(8, payload.size() - i));
          }
        }
        ASSERT_EQ(cache.insert(id, payload), ref.insert(id, payload))
            << "op " << op;
      }
      ASSERT_EQ(cache.size_bytes(), ref.size_bytes()) << "op " << op;
      ASSERT_EQ(cache.entries(), ref.entries()) << "op " << op;
      resident = ref.ids_mru_to_lru();
      ASSERT_EQ(cache.ids_mru_to_lru(), resident) << "op " << op;
    }
  }
}

// ---- DDStore integration -------------------------------------------------

class FetchCacheTest : public ::testing::Test {
 protected:
  FetchCacheTest()
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

TEST_F(FetchCacheTest, CachedPayloadsAreByteIdenticalUnderInjectedFaults) {
  simmpi::Runtime rt(4, machine_);
  faults::FaultConfig fc;
  fc.rma_fail_prob = 0.2;
  fc.rma_corrupt_prob = 0.1;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 4));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.width = 2;
    cfg.cache_capacity_bytes = kUnbounded;
    DDStore store(c, reader, client, cfg);
    // First sweep fetches through the faulty transport (verified bytes are
    // admitted); the second sweep is served from the cache and must return
    // the exact same payloads.
    std::vector<ByteBuffer> first(kSamples);
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      first[id] = store.get_bytes(id);
    }
    EXPECT_EQ(store.stats().cache_hits, 0u);
    EXPECT_EQ(store.stats().cache_misses, kSamples);
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      EXPECT_EQ(store.get_bytes(id), first[id]) << "sample " << id;
      EXPECT_EQ(graph::GraphSample::deserialize(first[id]), ds_->make(id));
    }
    EXPECT_EQ(store.stats().cache_hits, kSamples);
  });
}

TEST_F(FetchCacheTest, CacheHitsBypassTransportResilienceAndLockEpochs) {
  // The stage-ordering invariant (DESIGN.md): a hit consumes no retry
  // budget, trips no breaker, opens no lock epoch, moves no window bytes.
  simmpi::Runtime rt(4, machine_);
  faults::FaultConfig fc;
  fc.rma_fail_prob = 0.3;
  rt.set_fault_injector(std::make_shared<faults::FaultInjector>(fc, 4));
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.cache_capacity_bytes = kUnbounded;
    DDStore store(c, reader, client, cfg);
    for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get_bytes(id);
    store.reset_stats();
    for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get_bytes(id);
    const auto& st = store.stats();
    EXPECT_EQ(st.cache_hits, kSamples);
    EXPECT_EQ(st.cache_misses, 0u);
    EXPECT_EQ(st.retries, 0u);
    EXPECT_EQ(st.failovers, 0u);
    EXPECT_EQ(st.breaker_trips, 0u);
    EXPECT_EQ(st.rma_transfers, 0u);
    EXPECT_EQ(st.lock_epochs, 0u);
    EXPECT_EQ(st.local_gets, 0u);
    EXPECT_EQ(st.remote_gets, 0u);
    EXPECT_EQ(st.bytes_fetched, 0u);
  });
}

TEST_F(FetchCacheTest, HitMissSequenceIsIdenticalAcrossWidths) {
  // Cache keys are sample ids, not owners: for a fixed request sequence the
  // hit/miss/eviction trace must not depend on the replication width.
  const auto reader = cff_reader();
  // A capacity that forces eviction churn: about a quarter of the dataset.
  std::uint64_t capacity = 0;
  for (std::uint64_t id = 0; id < kSamples / 4; ++id) {
    capacity += reader.read_bytes_raw(id).size();
  }

  struct Trace {
    std::uint64_t hits, misses, evictions;
    bool operator==(const Trace&) const = default;
  };
  const auto run_width = [&](int width) {
    std::vector<Trace> traces(8);
    simmpi::Runtime rt(8, machine_);
    rt.run([&](simmpi::Comm& c) {
      auto client = client_for(c);
      DDStoreConfig cfg;
      cfg.width = width;
      cfg.cache_capacity_bytes = capacity;
      DDStore store(c, reader, client, cfg);
      // Each id is requested twice in a row (the repeat hits while the
      // entry is fresh) while the stream keeps walking the dataset (the
      // walk churns the bounded capacity).
      for (int i = 0; i < 96; ++i) {
        const std::uint64_t id =
            (17u * static_cast<std::uint64_t>(c.rank()) + 13u * (i / 2)) %
            kSamples;
        (void)store.get_bytes(id);
      }
      const auto& st = store.stats();
      traces[static_cast<std::size_t>(c.rank())] =
          Trace{st.cache_hits, st.cache_misses, st.cache_evictions};
    });
    return traces;
  };

  const auto w1 = run_width(1);
  const auto w2 = run_width(2);
  const auto w4 = run_width(4);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w2, w4);
  std::uint64_t total_hits = 0, total_evictions = 0;
  for (const auto& t : w1) {
    total_hits += t.hits;
    total_evictions += t.evictions;
  }
  EXPECT_GT(total_hits, 0u);       // the sequence revisits ids
  EXPECT_GT(total_evictions, 0u);  // and the bounded capacity churns
}

TEST_F(FetchCacheTest, ResetStatsPreservesCacheCapacityAndWarmth) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.cache_capacity_bytes = kUnbounded;
    DDStore store(c, reader, client, cfg);
    for (std::uint64_t id = 0; id < kSamples; ++id) (void)store.get_bytes(id);
    const double preload_s = store.stats().preload_seconds;
    const std::size_t warm_entries = store.sample_cache().entries();
    EXPECT_EQ(warm_entries, kSamples);

    store.reset_stats();

    // Counters are zeroed...
    EXPECT_EQ(store.stats().cache_hits, 0u);
    EXPECT_EQ(store.stats().cache_misses, 0u);
    EXPECT_EQ(store.stats().local_gets, 0u);
    // ...but construction facts and the cache survive: capacity, contents,
    // and recency are untouched, so the next fetch of a resident id hits.
    EXPECT_DOUBLE_EQ(store.stats().preload_seconds, preload_s);
    EXPECT_EQ(store.sample_cache().capacity_bytes(), kUnbounded);
    EXPECT_EQ(store.sample_cache().entries(), warm_entries);
    (void)store.get_bytes(0);
    EXPECT_EQ(store.stats().cache_hits, 1u);
    EXPECT_EQ(store.stats().rma_transfers, 0u);
  });
}

TEST_F(FetchCacheTest, CacheHitIsCheaperThanLocalOrRemoteFetch) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.cache_capacity_bytes = kUnbounded;
    DDStore store(c, reader, client, cfg);
    const ChunkAssignment a(kSamples, 4, Placement::Block);
    std::uint64_t local_id = 0, remote_id = 0;
    for (std::uint64_t id = 0; id < kSamples; ++id) {
      if (a.owner_of(id) == c.rank()) local_id = id;
      if (a.owner_of(id) == (c.rank() + 1) % 4) remote_id = id;
    }
    const auto timed = [&](std::uint64_t id) {
      const double t0 = c.clock().now();
      (void)store.get_bytes(id);
      return c.clock().now() - t0;
    };
    const double local_miss = timed(local_id);
    const double local_hit = timed(local_id);
    const double remote_miss = timed(remote_id);
    const double remote_hit = timed(remote_id);
    EXPECT_LT(local_hit, local_miss);
    EXPECT_LT(remote_hit, remote_miss);
    EXPECT_GT(local_hit, 0.0);  // hits are cheap, not free
  });
}

TEST_F(FetchCacheTest, PlannedBatchesServeResidentIdsWithoutTransfers) {
  simmpi::Runtime rt(4, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    DDStoreConfig cfg;
    cfg.batch_fetch = BatchFetchMode::Coalesced;
    cfg.cache_capacity_bytes = kUnbounded;
    DDStore store(c, reader, client, cfg);
    const std::vector<std::uint64_t> ids = {3, 19, 42, 7, 42, 60, 3, 25};
    const auto first = store.get_batch(ids);
    store.reset_stats();
    const auto second = store.get_batch(ids);
    ASSERT_EQ(second.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(second[i], ds_->make(ids[i]));
      EXPECT_EQ(second[i], first[i]);
    }
    // Every distinct id was resident, so the plan produced no targets: no
    // lock epochs, no coalesced transfers, only cache service.
    const auto& st = store.stats();
    EXPECT_EQ(st.cache_hits, 6u);  // distinct ids; duplicates decode only
    EXPECT_EQ(st.cache_misses, 0u);
    EXPECT_EQ(st.coalesced_transfers, 0u);
    EXPECT_EQ(st.lock_epochs, 0u);
    EXPECT_EQ(st.rma_transfers, 0u);
    EXPECT_EQ(st.batch_dup_hits, 2u);
  });
}

TEST_F(FetchCacheTest, RepeatOfAHitEvictedLaterInTheBatchDecodesIntact) {
  // The cache holds one payload: in {3, 5, 3} the first 3 hits, admitting
  // 5 evicts it, and the repeated 3 must still decode the hit's bytes.
  const std::uint64_t a = 3, b = 5;
  const std::uint64_t capacity = std::max(ds_->make(a).serialized_size(),
                                          ds_->make(b).serialized_size());
  simmpi::Runtime rt(2, machine_);
  const auto reader = cff_reader();
  rt.run([&](simmpi::Comm& c) {
    auto client = client_for(c);
    for (const BatchFetchMode mode :
         {BatchFetchMode::PerSample, BatchFetchMode::Coalesced}) {
      DDStoreConfig cfg;
      cfg.batch_fetch = mode;
      cfg.cache_capacity_bytes = capacity;
      DDStore store(c, reader, client, cfg);
      (void)store.get_bytes(a);
      store.reset_stats();
      const std::vector<std::uint64_t> ids = {a, b, a};
      const auto out = store.get_batch(ids);
      ASSERT_EQ(out.size(), ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(out[i], ds_->make(ids[i])) << "position " << i;
      }
      EXPECT_EQ(store.stats().cache_hits, 1u);
      EXPECT_EQ(store.stats().cache_evictions, 1u);
      EXPECT_EQ(store.stats().batch_dup_hits, 1u);
      EXPECT_FALSE(store.sample_cache().contains(a));
    }
  });
}

}  // namespace
}  // namespace dds::core

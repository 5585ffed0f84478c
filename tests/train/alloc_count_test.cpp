// Allocator calls per fetched sample on the simulated training path.
//
// This binary replaces the global operator new and delete with versions
// that count new calls while armed, and arms them around whole
// SimulatedTrainer epochs.  A fetched sample's floor is the five vectors
// GraphSample::deserialize fills; each cache or staged-set admission adds
// one exact-size payload; planning, the landing arena and the step loop
// add a few allocations per batch, not per sample.  The ceilings sit just
// above what the batch path reaches, so per-sample heap traffic coming
// back (a map node or a zero-filled buffer per fetched sample) fails here.
// Allocation counts do not move with the host's memory-latency modes, so
// this pins what a wall-time benchmark cannot.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "train/sim_trainer.hpp"

namespace {

bool g_armed = false;
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  if (g_armed) ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  if (g_armed) ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

// Out of line, so the compiler pairs each allocation with the operator
// that frees it instead of seeing malloc meet delete through inlining.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
[[gnu::noinline]] void* operator new[](std::size_t n,
                                       const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace dds::train {
namespace {

constexpr int kRanks = 16;
constexpr std::uint64_t kSamples = 16'384;  // a 1,024-sample shard per rank
constexpr std::uint64_t kLocalBatch = 32;
constexpr int kEpochs = 3;

/// Allocator calls per fetched sample over kEpochs epochs of
/// SimulatedTrainer on a freshly built store (cold caches included).
double allocations_per_sample(const core::DDStoreConfig& config,
                              bool local_shuffle) {
  const model::MachineConfig machine = model::perlmutter();
  fs::ParallelFileSystem fs(machine.fs, machine.nodes_for_ranks(kRanks));
  const auto ds =
      datagen::make_dataset(datagen::DatasetKind::AisdExDiscrete, kSamples, 1);
  formats::CffWriter::stage(fs, "cff", *ds, 8);
  const formats::CffReader reader(fs, "cff",
                                  ds->spec().nominal_cff_sample_bytes());
  simmpi::Runtime rt(kRanks, machine);
  std::uint64_t allocations = 0;
  std::uint64_t samples = 0;
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(fs, machine.node_of_rank(c.world_rank()), c.clock(),
                        c.rng());
    core::DDStore store(c, reader, client, config);
    DDStoreBackend backend(store);
    std::unique_ptr<Sampler> sampler;
    if (local_shuffle) {
      sampler = std::make_unique<LocalShuffleSampler>(kSamples, kLocalBatch, 1);
    } else {
      sampler =
          std::make_unique<GlobalShuffleSampler>(kSamples, kLocalBatch, 1);
    }
    SimTrainerConfig cfg;
    cfg.input_dim = ds->make(0).node_feature_dim;
    cfg.output_dim = ds->spec().target_dim;
    SimulatedTrainer trainer(c, backend, *sampler, machine, cfg);

    // The first rank released from each barrier flips the switch before
    // any rank runs past it.
    c.barrier();
    if (!g_armed) {
      g_allocations = 0;
      g_armed = true;
    }
    std::uint64_t served = 0;
    for (int e = 0; e < kEpochs; ++e) {
      served += trainer.run_epoch(static_cast<std::uint64_t>(e)).global_samples;
    }
    c.barrier();
    if (g_armed) {
      g_armed = false;
      allocations = g_allocations;
      samples = served;
    }
  });
  EXPECT_GT(samples, 0u);
  const double per_sample =
      static_cast<double>(allocations) / static_cast<double>(samples);
  std::printf("%llu allocator calls for %llu fetched samples: %.3f each\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(samples), per_sample);
  return per_sample;
}

TEST(AllocationsPerSample, PerSampleStoreStaysNearTheDecodeFloor) {
  // The paper's configuration: one replica, one lock/get/unlock per
  // sample, global shuffle.
  EXPECT_LE(allocations_per_sample(core::DDStoreConfig{}, false), 5.25);
}

TEST(AllocationsPerSample, TieredCoalescedStoreAddsOneAdmissionAtMost) {
  // perfbench tiered_batch_64's store at a quarter of its ranks: coalesced
  // gets, 2 MiB hot cache, half of every chunk cold behind a 2 MiB staged
  // set, and local shuffle so both LRUs hit and evict.
  core::DDStoreConfig config;
  config.width = 8;
  config.batch_fetch = core::BatchFetchMode::Coalesced;
  config.cache_capacity_bytes = 2 * 1024 * 1024;
  config.tiered.hot_fraction = 0.5;
  config.tiered.staged_set_bytes = 2 * 1024 * 1024;
  EXPECT_LE(allocations_per_sample(config, true), 6.2);
}

}  // namespace
}  // namespace dds::train

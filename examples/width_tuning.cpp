// Domain example 3 — operations: tuning the DDStore width for a machine.
//
// The width w trades memory (N/w full replicas of the dataset) against
// loading latency (smaller groups mean more local/near fetches).  This
// example sweeps the width on a 32-rank job and prints the trade-off
// table an operator would use to pick a value (§4.6 of the paper), plus
// the estimated memory footprint per rank at the paper's full scale.
// It then shows the two automatic alternatives to reading that table:
// suggest_width_ex (the static planner, now reporting replica count and
// memory headroom too) and the adaptive width controller, which walks a
// live store down the divisor ladder and prints its width per epoch.
//
// Build & run:  ./build/examples/width_tuning
#include <cstdio>

#include "common/units.hpp"
#include "core/ddstore.hpp"
#include "core/tuning.hpp"
#include "datagen/dataset.hpp"
#include "elastic/driver.hpp"
#include "formats/cff.hpp"
#include "train/loader.hpp"

using namespace dds;

int main() {
  const auto machine = model::perlmutter();
  constexpr int kRanks = 32;
  constexpr std::uint64_t kSamples = 16'384;

  fs::ParallelFileSystem pfs(machine.fs, machine.nodes_for_ranks(kRanks));
  const auto dataset = datagen::make_dataset(
      datagen::DatasetKind::AisdExDiscrete, kSamples, 31);
  formats::CffWriter::stage(pfs, "data", *dataset, 4);
  const formats::CffReader reader(pfs, "data",
                                  dataset->spec().nominal_cff_sample_bytes());

  // Full-scale chunk memory per rank: nominal dataset bytes / width.
  const double full_bytes =
      static_cast<double>(dataset->spec().full_cff_bytes);

  std::printf("# DDStore width tuning (%s, %d ranks, AISD-Ex discrete)\n",
              machine.name.c_str(), kRanks);
  std::printf("width, replicas, local%%, cache_hit%%, p50_fetch, p99_fetch, "
              "chunk_mem_per_rank(full scale)\n");

  for (const int width : {2, 4, 8, 16, 32}) {
    simmpi::Runtime runtime(kRanks, machine);
    runtime.run([&](simmpi::Comm& world) {
      fs::FsClient fs_client(pfs, machine.node_of_rank(world.world_rank()),
                             world.clock(), world.rng());
      core::DDStoreConfig config;
      config.width = width;
      config.charge_replica_preload = false;
      config.cache_capacity_bytes = 32ull << 20;  // hot-sample LRU per rank
      core::DDStore store(world, reader, fs_client, config);
      train::DDStoreBackend backend(store);
      train::GlobalShuffleSampler sampler(kSamples, 64, 3);
      train::DataLoader loader(backend, sampler, world.clock());
      // Two epochs: the second one measures how much of the workload the
      // warm LRU absorbs at this width.
      for (std::uint64_t epoch = 0; epoch < 2; ++epoch) {
        loader.begin_epoch(epoch, world);
        while (loader.next()) {
        }
      }
      store.fence();

      if (world.rank() == 0) {
        const auto& st = store.stats();
        const double local_pct =
            100.0 * static_cast<double>(st.local_gets) /
            static_cast<double>(st.local_gets + st.remote_gets);
        std::printf("%5d, %8d, %5.1f, %9.1f, %s, %s, %s\n", width,
                    store.num_replicas(), local_pct,
                    100.0 * st.cache_hit_rate(),
                    format_seconds(st.latency.percentile(50)).c_str(),
                    format_seconds(st.latency.percentile(99)).c_str(),
                    format_bytes(full_bytes / width).c_str());
      }
    });
  }
  std::printf("# pick the smallest width whose per-rank chunk fits beside "
              "the model in device/host memory\n");

  // --- static planner: suggest_width_ex -----------------------------------
  // The closed-form answer to the table above at the paper's full scale:
  // smallest divisor width whose chunk fits the per-rank budget, with the
  // replica count and leftover memory an operator wants to sanity-check.
  std::printf("\n# suggest_width_ex at full scale (%s dataset)\n",
              format_bytes(full_bytes).c_str());
  std::printf("budget_per_rank, width, replicas, chunk_per_rank, headroom\n");
  for (const std::uint64_t budget : {48 * GiB, 24 * GiB, 12 * GiB}) {
    const core::WidthSuggestion s = core::suggest_width_ex(
        static_cast<std::uint64_t>(full_bytes), budget, kRanks);
    std::printf("%s, %5d, %8d, %s, %s\n", format_bytes(budget).c_str(),
                s.width, s.replicas,
                format_bytes(s.chunk_bytes_per_rank).c_str(),
                format_bytes(s.headroom_bytes).c_str());
  }

  // --- adaptive controller: live width trajectory -------------------------
  // No table, no planner: start at the full stripe, let the ElasticDriver
  // observe each epoch and reshard the running store until the measured
  // trade-off settles.  The budget floors the walk at width 8 here.
  std::printf("\n# adaptive width controller (live reshards, budget floor "
              "at width 8)\n");
  {
    simmpi::Runtime runtime(kRanks, machine);
    runtime.run([&](simmpi::Comm& world) {
      fs::FsClient fs_client(pfs, machine.node_of_rank(world.world_rank()),
                             world.clock(), world.rng());
      core::DDStoreConfig config;
      config.width = kRanks;
      config.charge_replica_preload = false;
      core::DDStore store(world, reader, fs_client, config);
      elastic::ElasticConfig ecfg;
      ecfg.memory_budget_per_rank =
          store.num_samples() * store.nominal_sample_bytes() / 8 + 1;
      elastic::ElasticDriver driver(store, ecfg);
      train::DDStoreBackend backend(store);
      train::GlobalShuffleSampler sampler(kSamples, 64, 3);
      train::DataLoader loader(backend, sampler, world.clock());
      for (std::uint64_t epoch = 0; epoch < 5; ++epoch) {
        loader.begin_epoch(epoch, world);
        const double t0 = world.clock().now();
        while (loader.next()) {
        }
        driver.on_epoch_end(world.clock().now() - t0);
        if (world.rank() == 0) {
          std::printf("epoch %llu: width %d (%s)\n",
                      static_cast<unsigned long long>(epoch), store.width(),
                      driver.last_reason());
        }
      }
      if (world.rank() == 0) {
        std::printf("trajectory:");
        for (const int w : driver.width_trajectory()) std::printf(" %d", w);
        std::printf("  (converged=%s)\n",
                    driver.controller().converged() ? "yes" : "no");
      }
      store.fence();
    });
  }
  return 0;
}

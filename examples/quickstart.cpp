// Quickstart: create a DDStore over a staged dataset and fetch batches.
//
// This walks the full public API in ~80 lines:
//   1. stage a synthetic molecular dataset as a CFF container on the
//      simulated parallel filesystem,
//   2. bring up an 8-rank training job (simmpi runtime),
//   3. build a DDStore with width 4 (two replica groups),
//   4. pull globally-shuffled batches through the DataLoader facade while
//      an ElasticDriver watches each epoch and live-reshards the store
//      toward the cheapest width the memory budget allows,
//   5. print per-rank fetch statistics and the width trajectory,
//   6. export the merged span-level event trace as Chrome/Perfetto
//      trace.json (open it at https://ui.perfetto.dev) plus a
//      per-category rollup (reshards show up as "elastic" spans).
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "common/tracing/export.hpp"
#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "elastic/driver.hpp"
#include "formats/cff.hpp"
#include "train/loader.hpp"

using namespace dds;

int main() {
  // --- 1. stage a dataset -------------------------------------------------
  const auto machine = model::perlmutter();
  constexpr int kRanks = 8;
  constexpr std::uint64_t kSamples = 4096;

  fs::ParallelFileSystem pfs(machine.fs, machine.nodes_for_ranks(kRanks));
  const auto dataset =
      datagen::make_dataset(datagen::DatasetKind::AisdHomoLumo, kSamples,
                            /*seed=*/7);
  formats::CffWriter::stage(pfs, "data/aisd", *dataset, /*nsubfiles=*/4);
  const formats::CffReader reader(pfs, "data/aisd",
                                  dataset->spec().nominal_cff_sample_bytes());
  std::printf("staged %llu molecules in %u container subfiles\n",
              static_cast<unsigned long long>(reader.num_samples()),
              reader.num_subfiles());

  // --- 2-4. run an 8-rank job ----------------------------------------------
  simmpi::Runtime runtime(kRanks, machine);
  runtime.enable_tracing();  // per-rank span tracers, merged at export
  runtime.run([&](simmpi::Comm& world) {
    fs::FsClient fs_client(pfs, machine.node_of_rank(world.world_rank()),
                           world.clock(), world.rng());

    core::DDStoreConfig config;
    config.width = 4;  // two replica groups of four ranks each
    config.cache_capacity_bytes = 64ull << 20;  // per-rank hot-sample LRU
    core::DDStore store(world, reader, fs_client, config);

    // The driver watches each epoch's fetch mix and walks the width down
    // the divisor ladder while per-rank chunks still fit the budget (set
    // here so the floor is width 2: more replicas, more local fetches).
    elastic::ElasticConfig ecfg;
    ecfg.memory_budget_per_rank =
        store.num_samples() * store.nominal_sample_bytes() / 2 + 1;
    elastic::ElasticDriver driver(store, ecfg);

    train::DDStoreBackend backend(store);
    train::GlobalShuffleSampler sampler(store.num_samples(),
                                        /*local_batch=*/32, /*seed=*/1);
    train::DataLoader loader(backend, sampler, world.clock());

    for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
      loader.begin_epoch(epoch, world);
      const double t0 = world.clock().now();
      std::uint64_t graphs = 0, nodes = 0;
      while (const auto batch = loader.next()) {
        graphs += batch->num_graphs;
        nodes += batch->num_nodes;
      }
      driver.on_epoch_end(world.clock().now() - t0);
      if (world.rank() == 0) {
        std::printf("epoch %llu: %llu graphs (%llu nodes) per rank, "
                    "width %d after epoch (%s), simulated time %.3f s\n",
                    static_cast<unsigned long long>(epoch),
                    static_cast<unsigned long long>(graphs),
                    static_cast<unsigned long long>(nodes), store.width(),
                    driver.last_reason(), world.clock().now());
      }
    }
    if (world.rank() == 0) {
      std::printf("width trajectory:");
      for (const int w : driver.width_trajectory()) std::printf(" %d", w);
      std::printf("\n");
    }

    // --- 5. stats ----------------------------------------------------------
    // stats() is a view over the store's MetricsRegistry; cache_hit_rate()
    // summarizes the Cache stage (epoch 1 re-hits whatever epoch 0 left
    // resident in the 64 MiB LRU).
    const auto& st = store.stats();
    if (world.rank() < 2) {  // keep the output short
      std::printf(
          "rank %d (group %d of %d): %llu local + %llu remote fetches, "
          "cache hit rate %.1f%%, median fetch %.0f us\n",
          world.rank(), store.replica_index(), store.num_replicas(),
          static_cast<unsigned long long>(st.local_gets),
          static_cast<unsigned long long>(st.remote_gets),
          100.0 * st.cache_hit_rate(), st.latency.median() * 1e6);
    }
    store.fence();
  });

  // --- 6. export the event trace -------------------------------------------
  // Every instrumented layer (simmpi window ops, fetch stages, cache,
  // loader phases) recorded spans in virtual time; merge the 8 rank
  // streams into one Chrome trace and a per-category summary.
  const auto tracers = runtime.traces();
  if (!tracing::write_text_file("trace.json",
                                tracing::to_chrome_json(tracers))) {
    std::fprintf(stderr, "failed to write trace.json\n");
    return 1;
  }
  std::printf("\nwrote trace.json (load it in chrome://tracing or "
              "https://ui.perfetto.dev)\n\n%s",
              tracing::summary_table(tracing::summarize(tracers)).c_str());
  return 0;
}

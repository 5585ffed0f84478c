// Ablation: what do coalesced fetch plans and prefetch overlap each buy?
//
// Sweeps the batch fetch mode {per-sample, coalesced} against the prefetch
// depth {1 = strictly serial fetch->compute, 2 = double buffering, 3} and
// the replication width {1, 2, 4} on 8 Perlmutter ranks, every cell on the
// trainer's one step pipeline.  The planner's traffic counters (lock
// epochs, RMA transfers, coalesced segments/bytes, lock epochs saved) and
// the Load seconds hidden under GPU work are reported per cell.
//
// Output is a JSON array, one object per (mode, depth, width) cell, so the
// sweep can be diffed or plotted directly.  `--smoke` shrinks the setup to
// a seconds-scale CI configuration with the same output shape.  Both runs
// exit non-zero unless, in every width column, the fastest epoch is a
// coalesced cell that prefetches (depth >= 2; depths 2 and 3 may tie), and
// every cell took exactly one lock epoch per RMA transfer.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "common/harness.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

const char* mode_name(core::BatchFetchMode mode) {
  switch (mode) {
    case core::BatchFetchMode::PerSample: return "per-sample";
    case core::BatchFetchMode::Coalesced: return "coalesced";
  }
  return "?";
}

/// Mean modeled epoch time of one cell.
double mean_epoch_seconds(const RunResult& result) {
  double epoch_s = 0;
  for (const auto& e : result.epochs) epoch_s += e.epoch_seconds;
  return epoch_s / static_cast<double>(result.epochs.size());
}

void print_cell(bool first, core::BatchFetchMode mode, int depth, int width,
                const RunResult& result) {
  const double epoch_s = mean_epoch_seconds(result);
  double hidden_s = 0;
  for (const auto& e : result.epochs) hidden_s += e.overlap_hidden_s;
  const auto total = [&result](const char* name) {
    return static_cast<unsigned long long>(result.metric(name));
  };

  if (!first) std::printf(",\n");
  std::printf(
      "  {\"machine\": \"perlmutter\", \"mode\": \"%s\", \"depth\": %d, "
      "\"width\": %d, \"epoch_seconds\": %s, \"throughput_sps\": %s, "
      "\"p50_ms\": %s, \"p99_ms\": %s, \"overlap_hidden_s\": %s, "
      "\"lock_epochs\": %llu, \"rma_transfers\": %llu, "
      "\"coalesced_transfers\": %llu, \"coalesced_segments\": %llu, "
      "\"coalesced_bytes\": %llu, \"lock_epochs_saved\": %llu, "
      "\"batch_dup_hits\": %llu, \"coalesced_fallbacks\": %llu}",
      mode_name(mode), depth, width, fmt(epoch_s, 6).c_str(),
      fmt(result.mean_throughput(), 0).c_str(),
      fmt(result.latencies.percentile(50) * 1e3).c_str(),
      fmt(result.latencies.percentile(99) * 1e3).c_str(),
      fmt(hidden_s, 6).c_str(), total("lock_epochs"),
      total("rma_transfers"), total("coalesced_transfers"),
      total("coalesced_segments"), total("coalesced_bytes"),
      total("lock_epochs_saved"), total("batch_dup_hits"),
      total("coalesced_fallbacks"));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const model::MachineConfig machine = model::perlmutter();
  const int nranks = smoke ? 4 : 8;
  const core::BatchFetchMode modes[] = {core::BatchFetchMode::PerSample,
                                        core::BatchFetchMode::Coalesced};
  const int depths[] = {1, 2, 3};
  const int widths[] = {1, 2, 4};

  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = nranks;
  sc.local_batch = smoke ? 8 : 32;
  sc.epochs = smoke ? 1 : 2;
  sc.num_samples =
      smoke ? scaled_samples(nranks, sc.local_batch, /*min_steps=*/2,
                             /*floor_samples=*/256)
            : scaled_samples(nranks, sc.local_batch, /*min_steps=*/4,
                             /*floor_samples=*/4096);
  sc.ddstore.charge_replica_preload = false;

  StagedData data(machine, sc.kind, sc.num_samples, nranks,
                  /*with_pff=*/false);

  // Per width column: the fastest epoch of a coalesced cell that
  // prefetches (first) and of every other cell (second).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, double>> best(std::size(widths),
                                              {kInf, kInf});
  bool ok = true;

  std::printf("[\n");
  bool first = true;
  for (const auto mode : modes) {
    for (const int depth : depths) {
      for (std::size_t w = 0; w < std::size(widths); ++w) {
        Scenario run = sc;
        run.ddstore.batch_fetch = mode;
        run.ddstore.width = widths[w];
        run.prefetch_depth = depth;
        const auto result = run_training(data, run, BackendKind::DDStore);
        print_cell(first, mode, depth, widths[w], result);
        first = false;
        double& fastest = mode == core::BatchFetchMode::Coalesced && depth >= 2
                              ? best[w].first
                              : best[w].second;
        fastest = std::min(fastest, mean_epoch_seconds(result));
        ok = ok &&
             result.metric("lock_epochs") == result.metric("rma_transfers");
      }
    }
  }
  std::printf("\n]\n");

  for (const auto& [coalesced, other] : best) ok = ok && coalesced < other;
  if (!ok) {
    std::fprintf(stderr,
                 "check failed: each width's fastest epoch must be a "
                 "coalesced cell with depth >= 2, and every cell's lock "
                 "epochs must equal its RMA transfers\n");
  }
  return ok ? 0 : 1;
}

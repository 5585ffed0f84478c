// Ablation: lock-per-sample vs coalesced vectored transfers in batch
// fetches.
//
// The paper's Fig. 3 walkthrough issues MPI_Win_lock / MPI_Get /
// MPI_Win_unlock per item.  The fetch planner instead sorts a batch by
// owner and moves every sample a target holds in one lock epoch around one
// vectored get, merging adjacent samples into single ranges
// (core/fetch_plan.hpp).  This bench measures both against the Block vs
// RoundRobin placement choice and reports exactly what traffic each policy
// issued (lock epochs, RMA transfers).  Exits non-zero unless, at both
// placements, coalesced's p50 and mean fetch are below per-sample's and
// every rank's lock epochs equal its RMA transfers in both modes.
#include <cstdio>
#include <string>

#include "common/harness.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

const char* mode_name(core::BatchFetchMode mode) {
  switch (mode) {
    case core::BatchFetchMode::PerSample: return "lock-per-sample";
    case core::BatchFetchMode::Coalesced: return "coalesced";
  }
  return "?";
}

/// What one (mode, placement) cell measured: rank 0's fetch latencies, and
/// whether every rank took exactly one lock epoch per RMA transfer.
struct Cell {
  double p50_s = 0.0;
  double mean_s = 0.0;
  bool epochs_match_transfers = true;
};

Cell sweep(StagedData& data, const model::MachineConfig& machine, int nranks,
           core::BatchFetchMode mode, core::Placement placement) {
  Cell cell;
  simmpi::Runtime rt(nranks, machine);
  rt.run([&](simmpi::Comm& comm) {
    fs::FsClient client(data.fs(), machine.node_of_rank(comm.world_rank()),
                        comm.clock(), comm.rng());
    core::DDStoreConfig config;
    config.batch_fetch = mode;
    config.placement = placement;
    config.charge_replica_preload = false;
    core::DDStore store(comm, data.cff(), client, config);
    comm.barrier();
    comm.clock().reset();

    train::GlobalShuffleSampler sampler(store.num_samples(), 128, 9);
    sampler.begin_epoch(0, comm);
    for (std::uint64_t step = 0; step < sampler.steps_per_epoch(); ++step) {
      const auto ids = sampler.batch_ids(step);
      const auto batch = store.get_batch(ids);
      DDS_CHECK(batch.size() == ids.size());
    }
    store.fence();

    // Ranks are fibers on one thread, so every rank can fold its own audit
    // into the shared cell.
    const auto& st = store.stats();
    cell.epochs_match_transfers =
        cell.epochs_match_transfers && st.lock_epochs == st.rma_transfers;
    if (comm.rank() == 0) {
      cell.p50_s = st.latency.percentile(50);
      cell.mean_s = st.latency.mean();
      print_row({mode_name(mode),
                 placement == core::Placement::Block ? "block" : "round-robin",
                 fmt(cell.p50_s * 1e3, 3) + " ms",
                 fmt(st.latency.percentile(99) * 1e3, 3) + " ms",
                 fmt(cell.mean_s * 1e3, 3) + " ms",
                 std::to_string(st.lock_epochs),
                 std::to_string(st.rma_transfers)});
    }
    comm.barrier();
  });
  return cell;
}

}  // namespace

int main() {
  const auto machine = model::perlmutter();
  constexpr int kRanks = 32;
  StagedData data(machine, datagen::DatasetKind::AisdExDiscrete, 16'384,
                  kRanks, /*with_pff=*/false);

  std::printf("# Ablation (Perlmutter, %d GPUs): RMA lock granularity and "
              "chunk placement, batch 128\n", kRanks);
  print_row({"lock mode", "placement", "p50 fetch", "p99 fetch", "mean",
             "lock epochs", "rma transfers"});
  const core::BatchFetchMode modes[] = {core::BatchFetchMode::PerSample,
                                        core::BatchFetchMode::Coalesced};
  const core::Placement placements[] = {core::Placement::Block,
                                        core::Placement::RoundRobin};
  Cell cells[2][2];  // [mode][placement]
  bool ok = true;
  for (int m = 0; m < 2; ++m) {
    for (int p = 0; p < 2; ++p) {
      cells[m][p] = sweep(data, machine, kRanks, modes[m], placements[p]);
      ok = ok && cells[m][p].epochs_match_transfers;
    }
  }
  for (int p = 0; p < 2; ++p) {
    const Cell& per_sample = cells[0][p];
    const Cell& coalesced = cells[1][p];
    ok = ok && coalesced.p50_s < per_sample.p50_s &&
         coalesced.mean_s < per_sample.mean_s;
  }
  std::printf("# check: at both placements coalesced's p50 and mean fetch "
              "are below per-sample's, and every lock epoch brackets one "
              "RMA transfer: %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// Fig. 7: Score-P-style profile of HydraGNN + DDStore training on the
// AISD-Ex discrete dataset with 64 Summit nodes (384 GPUs).
//
// Every region row is read off the span-level EventTracer, merged across
// all ranks: the six trainer-phase spans (renamed to their Score-P
// regions) and the MPI one-sided rows — every win_lock/win_get/win_unlock
// the fetch path actually issued — instead of being synthesized from
// fetch counters.  Shares are of the training step, the sum of the six
// trainer-phase rows: the MPI rows already sit inside
// DataLoader::load_batch, so adding them again would count them twice.
// Paper: "Data loading accounts for approximately 67% of the training
// duration, while MPI RMA functions contribute to about 35% of the
// overall time spent in training."
#include <algorithm>
#include <cstdio>

#include "common/harness.hpp"
#include "common/tracing/export.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

/// Trainer-phase spans (Category::Train) and the Score-P region each one
/// reports as.
constexpr std::pair<const char*, const char*> kTrainRegions[] = {
    {"load", "DataLoader::load_batch"},
    {"collate", "Batch::collate"},
    {"forward", "Model::forward"},
    {"backward", "Model::backward"},
    {"allreduce_grad", "MPI_Allreduce(gradients)"},
    {"optimizer", "AdamW::step"},
};

/// Share of a one-sided read's modeled software overhead attributed to the
/// MPI_Win_lock/unlock pair.  The model charges lock, get and unlock as
/// one per-access RMA cost, so the profile splits measured get time into
/// the two Score-P rows by this fixed share.
constexpr double kLockShare = 0.4;

}  // namespace

int main() {
  const auto machine = model::summit();
  constexpr int kRanks = 64 * 6;  // 64 Summit nodes

  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = kRanks;
  sc.local_batch = 128;
  sc.num_samples = scaled_samples(kRanks, sc.local_batch, /*min_steps=*/2);
  sc.ddstore.charge_replica_preload = false;

  StagedData data(machine, sc.kind, sc.num_samples, kRanks,
                  /*with_pff=*/false);

  core::DDStoreStats store_stats;

  simmpi::Runtime rt(kRanks, machine, sc.seed);
  // ~1.5k events per rank for this configuration; 8k slots leave headroom
  // without ballooning 384 rank rings.
  rt.enable_tracing(/*capacity_per_rank=*/1u << 13);
  rt.run([&](simmpi::Comm& comm) {
    fs::FsClient client(data.fs(), machine.node_of_rank(comm.world_rank()),
                        comm.clock(), comm.rng());
    core::DDStore store(comm, data.cff(), client, sc.ddstore);
    comm.barrier();
    comm.clock().reset();
    comm.barrier();
    store.reset_stats();
    // Drop the setup/preload spans so the trace covers steady-state
    // training only (each rank owns its tracer: single-writer clear).
    if (auto* tr = comm.tracer()) tr->clear();

    train::DDStoreBackend backend(store);
    train::GlobalShuffleSampler sampler(data.dataset().size(), sc.local_batch,
                                        sc.seed);
    train::SimTrainerConfig cfg;
    cfg.input_dim = data.input_dim();
    cfg.output_dim = data.dataset().spec().target_dim;
    train::SimulatedTrainer trainer(comm, backend, sampler, machine, cfg);
    trainer.run_epoch(0);

    if (comm.rank() == 0) store_stats = store.stats();
    comm.barrier();
  });

  // A profile with holes is no profile: every rank's ring must have held
  // the whole epoch.
  for (const tracing::EventTracer* t : rt.traces()) {
    if (t->dropped() != 0) {
      std::fprintf(stderr, "rank %d dropped %llu trace events; raise the "
                   "tracer capacity\n", t->rank(),
                   static_cast<unsigned long long>(t->dropped()));
      return 1;
    }
  }

  // Region rows: the trainer-phase spans under their Score-P names, then
  // the MPI one-sided rows, measured: roll the per-rank win_* spans up and
  // split each get's span time into its lock-epoch share (the model folds
  // the shared-lock round trip into the per-access RMA overhead, so the
  // split is the fixed kLockShare).
  std::vector<tracing::SummaryRow> regions;
  double step_seconds = 0, loading = 0, rma = 0;
  std::uint64_t win_gets = 0, win_locks = 0;
  const auto span_rows = tracing::summarize(rt.traces());
  for (const auto& row : span_rows) {
    if (row.category == tracing::Category::Train) {
      for (const auto& [span, region] : kTrainRegions) {
        if (row.name != span) continue;
        regions.push_back(row);
        regions.back().name = region;
        step_seconds += row.seconds;
      }
      if (row.name == "load") loading = row.seconds;
    } else if (row.category == tracing::Category::Simmpi) {
      if (row.name == "win_get" || row.name == "win_getv") {
        win_gets += row.count;
        rma += row.seconds;
      } else if (row.name == "win_lock") {
        win_locks += row.count;
      }
    }
  }
  regions.push_back({tracing::Category::Simmpi, "MPI_Win_lock+unlock(shared)",
                     win_locks, rma * kLockShare});
  regions.push_back({tracing::Category::Simmpi, "MPI_Get", win_gets,
                     rma * (1.0 - kLockShare)});
  std::sort(regions.begin(), regions.end(),
            [](const tracing::SummaryRow& a, const tracing::SummaryRow& b) {
              return a.seconds > b.seconds;
            });

  std::printf("# Fig. 7 (Summit, 64 nodes, AISD-Ex discrete, DDStore): "
              "Score-P-style profile, all ranks merged\n");
  print_row({"region", "calls", "seconds", "share"});
  for (const auto& r : regions) {
    print_row({r.name, std::to_string(r.count), fmt(r.seconds, 2),
               fmt(100.0 * r.seconds / step_seconds, 1) + "%"});
  }
  std::printf("\nData loading share: %.1f%%  (paper: ~67%%)\n",
              100.0 * loading / step_seconds);
  std::printf("MPI RMA share:      %.1f%%  (paper: ~35%%)\n",
              100.0 * rma / step_seconds);
  std::printf("(remote fetches rank 0: %llu of %llu)\n",
              static_cast<unsigned long long>(store_stats.remote_gets),
              static_cast<unsigned long long>(store_stats.remote_gets +
                                              store_stats.local_gets));
  std::printf("\n# span-level rollup (all ranks, steady-state epoch)\n%s",
              tracing::summary_table(span_rows).c_str());
  return 0;
}

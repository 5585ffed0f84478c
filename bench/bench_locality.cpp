// Locality-aware batch scheduling (DESIGN.md, "Locality-aware batch
// scheduling (`src/sched`)"): remote traffic and modeled epoch time of
// OwnerGreedy assignment matching vs the plain global shuffle, swept over
// width and batch size.
//
// The scheduler (src/sched) re-matches each global batch's sample->rank
// assignment onto owning ranks.  The per-batch multiset is untouched, so
// under canonical-order gradient reduction the loss curve is bit-identical
// to the shuffle's; what changes is *where* samples run — at width w the
// shuffle fetches ~(w-1)/w of every batch remotely while the matcher's
// remote share is only the multinomial overflow (samples whose owner class
// is already at capacity in that batch).
//
// --smoke (CI bench-smoke job) runs width 8 and exits nonzero unless
//   (a) OwnerGreedy cuts remote_gets by at least half of the theoretical
//       shuffle remote share: cut >= 0.5 * (w-1)/w, and
//   (b) a real-GNN loss curve under OwnerGreedy is bit-identical to the
//       shuffle curve when both use canonical gradient reduction.
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/harness.hpp"
#include "sched/sampler.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

const char* mode_name(core::LocalityMode mode) {
  return mode == core::LocalityMode::Shuffle ? "shuffle" : "owner-greedy";
}

struct Cell {
  int width = 0;
  std::uint64_t batch = 0;
  core::LocalityMode mode = core::LocalityMode::Shuffle;
  RunResult result;
};

Cell run_cell(StagedData& data, const Scenario& base, int width,
              std::uint64_t batch, core::LocalityMode mode) {
  Scenario run = base;
  run.ddstore.width = width;
  run.local_batch = batch;
  run.ddstore.locality_mode = mode;
  Cell cell;
  cell.width = width;
  cell.batch = batch;
  cell.mode = mode;
  cell.result = run_training(data, run, BackendKind::DDStore);
  return cell;
}

void print_cell(const Cell& cell, double shuffle_remote) {
  const auto& st = cell.result.ddstore_stats;
  const double gets =
      static_cast<double>(st.local_gets + st.remote_gets);
  const double remote = static_cast<double>(st.remote_gets);
  const double cut =
      shuffle_remote > 0 ? 1.0 - remote / shuffle_remote : 0.0;
  double seconds = 0;
  for (const auto& e : cell.result.epochs) seconds += e.epoch_seconds;
  print_row({std::to_string(cell.width), std::to_string(cell.batch),
             mode_name(cell.mode), std::to_string(st.remote_gets),
             fmt(static_cast<double>(st.nominal_bytes_fetched) / 1e9, 3),
             fmt(gets > 0 ? 100.0 * remote / gets : 0.0, 1),
             fmt(seconds, 4), fmt(100.0 * cut, 1)});
}

// ---- Convergence check (smoke part b) ---------------------------------------
//
// Same recipe as bench_fig13_convergence, shrunk: 2 ranks, the real GNN,
// canonical gradient reduction in both runs.  Only the sampler differs.

struct EpochPoint {
  double train = 0, val = 0, test = 0, lr = 0;
  bool operator==(const EpochPoint&) const = default;
};

std::vector<EpochPoint> run_real_curve(StagedData& data,
                                       const model::MachineConfig& machine,
                                       int epochs, core::LocalityMode mode) {
  constexpr int kRanks = 2;
  data.fs().reset_time_state();
  std::vector<EpochPoint> curve;
  simmpi::Runtime rt(kRanks, machine);
  rt.run([&](simmpi::Comm& comm) {
    fs::FsClient client(data.fs(), machine.node_of_rank(comm.world_rank()),
                        comm.clock(), comm.rng());
    core::DDStoreConfig store_cfg;
    store_cfg.width = kRanks;
    store_cfg.locality_mode = mode;
    core::DDStore store(comm, data.cff(), client, store_cfg);
    train::DDStoreBackend backend(store);

    train::RealTrainerConfig cfg;
    cfg.gnn.input_dim = data.input_dim();
    cfg.gnn.hidden = 16;
    cfg.gnn.pna_layers = 2;
    cfg.gnn.fc_layers = 2;
    cfg.gnn.output_dim = data.dataset().make(0).target_dim();
    cfg.local_batch = 8;
    cfg.optimizer.lr = 1e-3;
    cfg.reduction = train::GradReduction::Canonical;

    // The external sampler covers the trainer's training split.
    const auto train_size = static_cast<std::uint64_t>(
        static_cast<double>(data.dataset().size()) * cfg.train_fraction);
    sched::LocalityAwareSampler sampler(
        train::GlobalShuffleSampler(train_size, cfg.local_batch, cfg.seed),
        &store.layout(), mode);
    train::RealTrainer trainer(comm, backend, cfg, &sampler);

    for (int epoch = 0; epoch < epochs; ++epoch) {
      const auto r = trainer.run_epoch(static_cast<std::uint64_t>(epoch));
      if (comm.rank() == 0) {
        curve.push_back({r.train_loss, r.val_loss, r.test_loss, r.lr});
      }
    }
  });
  return curve;
}

bool convergence_check(const model::MachineConfig& machine) {
  constexpr std::uint64_t kSamples = 128;
  constexpr int kEpochs = 4;
  StagedData data(machine, datagen::DatasetKind::AisdExSmooth, kSamples,
                  /*nranks=*/2, /*with_pff=*/false, /*seed=*/3);
  const auto shuffle =
      run_real_curve(data, machine, kEpochs, core::LocalityMode::Shuffle);
  const auto greedy =
      run_real_curve(data, machine, kEpochs, core::LocalityMode::OwnerGreedy);
  if (shuffle != greedy) {
    std::fprintf(stderr,
                 "SMOKE FAIL: owner-greedy loss curve diverged from the "
                 "shuffle curve under canonical reduction\n");
    return false;
  }
  std::fprintf(stderr,
               "smoke ok: owner-greedy loss curve bit-identical to shuffle "
               "over %d epochs\n",
               kEpochs);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const auto machine = model::perlmutter();

  const int nranks = smoke ? 8 : 16;
  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = nranks;
  sc.epochs = 2;
  sc.ddstore.charge_replica_preload = false;

  const std::vector<std::uint64_t> batches =
      smoke ? std::vector<std::uint64_t>{32}
            : std::vector<std::uint64_t>{32, 128};
  const std::uint64_t max_batch = batches.back();
  sc.num_samples = scaled_samples(nranks, max_batch, /*min_steps=*/4,
                                  /*floor_samples=*/smoke ? 2'048 : 8'192);

  std::printf("# Locality-aware batch scheduling (%s, %d ranks): remote "
              "traffic vs assignment mode\n",
              machine.name.c_str(), nranks);
  print_row({"width", "batch", "mode", "remote_gets", "GB fetched",
             "remote %", "epoch s", "remote cut %"});

  StagedData data(machine, sc.kind, sc.num_samples, nranks,
                  /*with_pff=*/false);

  bool gate_ok = true;
  for (const std::uint64_t batch : batches) {
    for (int width = 2; width <= nranks; width *= 2) {
      if (nranks % width != 0) continue;
      if (smoke && width != 8) continue;
      const Cell shuffle =
          run_cell(data, sc, width, batch, core::LocalityMode::Shuffle);
      const auto shuffle_remote =
          static_cast<double>(shuffle.result.ddstore_stats.remote_gets);
      print_cell(shuffle, shuffle_remote);
      const Cell greedy =
          run_cell(data, sc, width, batch, core::LocalityMode::OwnerGreedy);
      print_cell(greedy, shuffle_remote);

      const double cut =
          1.0 - static_cast<double>(greedy.result.ddstore_stats.remote_gets) /
                    shuffle_remote;
      const double required =
          0.5 * static_cast<double>(width - 1) / static_cast<double>(width);
      if (smoke && cut < required) {
        std::fprintf(stderr,
                     "SMOKE FAIL: width %d remote cut %.3f below required "
                     "%.3f (= 0.5 * (w-1)/w)\n",
                     width, cut, required);
        gate_ok = false;
      }
    }
  }

  if (!smoke) return 0;
  if (!convergence_check(machine)) gate_ok = false;
  return gate_ok ? 0 : 1;
}

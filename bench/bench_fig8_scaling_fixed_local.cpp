// Fig. 8: scaling with a fixed per-GPU batch size of 128.
//
// Summit: 8-256 nodes (48-1536 GPUs); Perlmutter: 8-256 nodes (32-1024
// GPUs); AISD-Ex discrete and smooth; PFF vs CFF vs DDStore; two seeds per
// point give the variability band (the paper's grey area).  Expected
// shape: DDStore scales near-linearly in GPUs; PFF saturates at the
// metadata server and CFF at the filesystem data path, with much larger
// run-to-run variability.
//
// The full sweep reaches the paper's top widths (1536 Summit GPUs, 1024
// Perlmutter GPUs) — practical only under the fiber engine, which runs
// every simulated rank as a userspace fiber instead of an OS thread.
// `--smoke` runs the 1024-rank Perlmutter point alone through one short
// DDStore epoch (CI's large-N gate).
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/harness.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

void run_machine(const model::MachineConfig& machine,
                 datagen::DatasetKind kind) {
  std::printf("\n# Fig. 8 (%s, %s): throughput [samples/s] vs GPUs, "
              "fixed local batch 128\n",
              machine.name.c_str(), datagen::dataset_spec(kind).name.c_str());
  print_row({"nodes", "gpus", "PFF lo", "PFF hi", "CFF lo", "CFF hi",
             "DDStore lo", "DDStore hi"});

  for (int nodes = 8; nodes <= 256; nodes *= 2) {
    const int nranks = nodes * machine.gpus_per_node;
    Scenario sc;
    sc.machine = machine;
    sc.kind = kind;
    sc.nranks = nranks;
    sc.local_batch = 128;
    sc.epochs = 1;
    sc.num_samples = scaled_samples(nranks, sc.local_batch, /*min_steps=*/2);
    sc.ddstore.charge_replica_preload = false;  // preload excluded anyway

    StagedData data(machine, kind, sc.num_samples, nranks, /*with_pff=*/true);
    std::vector<std::string> row = {std::to_string(nodes),
                                    std::to_string(nranks)};
    for (const auto backend :
         {BackendKind::Pff, BackendKind::Cff, BackendKind::DDStore}) {
      double lo = 1e300, hi = 0;
      for (const std::uint64_t seed : {11ULL, 29ULL}) {
        Scenario run = sc;
        run.seed = seed;
        const double tput = run_training(data, run, backend)
                                .mean_throughput();
        lo = std::min(lo, tput);
        hi = std::max(hi, tput);
      }
      row.push_back(fmt(lo, 0));
      row.push_back(fmt(hi, 0));
    }
    print_row(row);
  }
}

/// CI large-N gate: 256 Perlmutter nodes = 1024 simulated ranks through
/// one short DDStore epoch.  Exits non-zero unless the epoch completes
/// with positive throughput; prints the wall time to stderr so CI logs
/// document what the fiber engine buys while stdout stays byte-stable.
int run_smoke() {
  const auto machine = model::perlmutter();
  const int nranks = 256 * machine.gpus_per_node;  // 1024
  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = nranks;
  sc.local_batch = 16;
  sc.epochs = 1;
  sc.num_samples = scaled_samples(nranks, sc.local_batch, /*min_steps=*/2);
  sc.ddstore.charge_replica_preload = false;

  std::printf("# Fig. 8 --smoke: %d ranks (256 Perlmutter nodes), "
              "%llu samples, one epoch\n",
              nranks, static_cast<unsigned long long>(sc.num_samples));
  const auto t0 = std::chrono::steady_clock::now();
  StagedData data(machine, sc.kind, sc.num_samples, nranks,
                  /*with_pff=*/false);
  const auto result = run_training(data, sc, BackendKind::DDStore);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double tput = result.mean_throughput();
  print_row({"gpus", "samples/s", "modeled epoch [s]"});
  print_row({std::to_string(nranks), fmt(tput, 0),
             fmt(result.epochs.front().epoch_seconds)});
  std::fprintf(stderr, "wall [s]: %s\n", fmt(wall, 1).c_str());
  if (!(tput > 0)) {
    std::fprintf(stderr, "FAIL: 1024-rank epoch produced no throughput\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  run_machine(model::summit(), datagen::DatasetKind::AisdExDiscrete);
  run_machine(model::summit(), datagen::DatasetKind::AisdExSmooth);
  run_machine(model::perlmutter(), datagen::DatasetKind::AisdExDiscrete);
  run_machine(model::perlmutter(), datagen::DatasetKind::AisdExSmooth);
  return 0;
}

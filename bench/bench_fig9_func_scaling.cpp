// Fig. 9: per-function duration breakdown of DDStore training at the same
// settings as Fig. 8 (fixed local batch 128, AISD-Ex discrete).
//
// For each scale, the mean per-rank seconds per training step of every
// phase, and the epoch's seconds per step — showing which functions stay
// flat (per-step work) and which grow with the GPU count.  Per step, not
// per epoch: the dataset floor in scaled_samples gives the smallest
// Perlmutter row twice the steps of every other row.
#include <cstdio>

#include "common/harness.hpp"

using namespace dds;
using namespace dds::bench;

namespace {

void run_machine(const model::MachineConfig& machine) {
  std::printf("\n# Fig. 9 (%s, AISD-Ex discrete, DDStore): per-step phase "
              "durations [s/step/rank]\n",
              machine.name.c_str());
  print_row({"nodes", "gpus", "CPU-Loading", "CPU-Batching", "GPU-Forward",
             "GPU-Backward", "GPU-Comm", "GPU-Optimizer", "step"});
  for (int nodes = 8; nodes <= 256; nodes *= 2) {
    const int nranks = nodes * machine.gpus_per_node;
    Scenario sc;
    sc.machine = machine;
    sc.kind = datagen::DatasetKind::AisdExDiscrete;
    sc.nranks = nranks;
    sc.local_batch = 128;
    sc.epochs = 1;
    sc.num_samples = scaled_samples(nranks, sc.local_batch, /*min_steps=*/2);
    sc.ddstore.charge_replica_preload = false;

    StagedData data(machine, sc.kind, sc.num_samples, nranks,
                    /*with_pff=*/false);
    const auto result = run_training(data, sc, BackendKind::DDStore);
    const auto& rep = result.epochs.back();
    const auto& p = rep.mean_profile;
    const double steps = static_cast<double>(
        rep.global_samples /
        (static_cast<std::uint64_t>(nranks) * sc.local_batch));
    const auto per_step = [steps](double s) { return fmt(s / steps, 4); };
    using train::Phase;
    print_row({std::to_string(nodes), std::to_string(nranks),
               per_step(p.get(Phase::Load)), per_step(p.get(Phase::Batch)),
               per_step(p.get(Phase::Forward)),
               per_step(p.get(Phase::Backward)),
               per_step(p.get(Phase::GradComm)),
               per_step(p.get(Phase::Optimizer)),
               per_step(rep.epoch_seconds)});
  }
}

}  // namespace

int main() {
  run_machine(model::summit());
  run_machine(model::perlmutter());
  return 0;
}

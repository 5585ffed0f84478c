// Ablation: DDStore vs node-local NVMe staging vs plain file reads.
//
// The paper's premise (§1, §2.3): node-local NVMe can stage datasets
// locally, but many DOE machines lack it — DDStore provides the same
// "read the FS once" property using only host memory and the interconnect.
// This bench quantifies the comparison on 64 Perlmutter GPUs: plain CFF
// pays the filesystem every epoch; NVMe+CFF pays it on epoch 0 and streams
// from flash afterwards; DDStore pays a one-time preload and then serves
// RAM-to-RAM fetches from epoch 0 on.
#include <cstdio>

#include "common/harness.hpp"

using namespace dds;
using namespace dds::bench;

int main() {
  const auto machine = model::perlmutter();
  constexpr int kRanks = 64;
  constexpr int kEpochs = 3;

  Scenario sc;
  sc.machine = machine;
  sc.kind = datagen::DatasetKind::AisdExDiscrete;
  sc.nranks = kRanks;
  sc.local_batch = 128;
  sc.epochs = kEpochs;
  sc.num_samples = scaled_samples(kRanks, sc.local_batch, /*min_steps=*/3);

  StagedData data(machine, sc.kind, sc.num_samples, kRanks, /*with_pff=*/false);

  std::printf("# Ablation (Perlmutter, 64 GPUs, AISD-Ex discrete): "
              "DDStore vs NVMe staging vs plain CFF\n");
  print_row({"backend", "epoch", "throughput [samples/s]", "p50 load",
             "p99 load"});

  // --- plain CFF and DDStore via the standard harness ---------------------
  for (const auto backend : {BackendKind::Cff, BackendKind::DDStore}) {
    const auto result = run_training(data, sc, backend);
    for (const auto& e : result.epochs) {
      print_row({backend_name(backend), std::to_string(e.epoch),
                 fmt(e.throughput, 0), "", ""});
    }
    print_row({backend_name(backend), "p50/p99 (all epochs)", "",
               fmt(result.latencies.percentile(50) * 1e3, 3) + " ms",
               fmt(result.latencies.percentile(99) * 1e3, 3) + " ms"});
  }

  // --- NVMe-staged CFF, two staging policies -------------------------------
  // (a) cache-on-touch: under global shuffling every epoch touches a fresh
  //     random subset per node, so hit rates stay near #touched/#dataset —
  //     demonstrating that lazy NVMe caching does NOT fix global-shuffle
  //     I/O.  (b) prestage: each node copies the whole container to its
  //     device up front (the realistic burst-buffer workflow) and all
  //     epochs stream locally — fast, but it needs capacity for a full
  //     per-node replica and a dataset x nodes staging read.
  for (const bool prestage : {false, true}) {
    data.fs().reset_time_state();
    fs::NvmeParams nvme;
    const double scale =
        static_cast<double>(sc.num_samples) /
        static_cast<double>(data.dataset().spec().full_num_graphs);
    nvme.capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(nvme.capacity_bytes) * scale);
    fs::NvmeTier tier(nvme, machine.nodes_for_ranks(kRanks));
    const char* label = prestage ? "NVMe prestaged" : "NVMe on-touch";

    std::vector<LatencyRecorder> per_rank(kRanks);
    simmpi::Runtime rt(kRanks, machine, sc.seed);
    rt.run([&](simmpi::Comm& comm) {
      const int node = machine.node_of_rank(comm.world_rank());
      fs::FsClient client(data.fs(), node, comm.clock(), comm.rng());
      train::NvmeStagedBackend backend(data.cff(), client, tier, node);

      if (prestage) {
        // One rank per node pulls the full container onto the device.  It
        // stages through a backend of its own: the tier holds what is
        // staged, and the trainer's backend then times only training reads.
        if (comm.world_rank() % machine.gpus_per_node == 0) {
          train::NvmeStagedBackend stager(data.cff(), client, tier, node);
          for (std::uint64_t id = 0; id < data.dataset().size(); ++id) {
            (void)stager.load(id);
          }
        }
        const double staging =
            comm.allreduce(comm.clock().now(), simmpi::Op::Max);
        if (comm.rank() == 0) {
          print_row({label, "staging", "", fmt(staging, 1) + " s total", ""});
        }
        comm.barrier();
        comm.clock().reset();
        comm.barrier();
      }

      train::GlobalShuffleSampler sampler(data.dataset().size(),
                                          sc.local_batch, sc.seed);
      train::SimTrainerConfig cfg;
      cfg.input_dim = data.input_dim();
      cfg.output_dim = data.dataset().spec().target_dim;
      train::SimulatedTrainer trainer(comm, backend, sampler, machine, cfg);
      for (int e = 0; e < kEpochs; ++e) {
        const auto rep = trainer.run_epoch(static_cast<std::uint64_t>(e));
        if (comm.rank() == 0) {
          print_row({label, std::to_string(e), fmt(rep.throughput, 0), "",
                     ""});
        }
      }
      per_rank[static_cast<std::size_t>(comm.rank())] =
          load_latencies(backend);
    });
    LatencyRecorder lat;
    for (const LatencyRecorder& rank : per_rank) lat.merge(rank);
    print_row({label, "p50/p99 (all epochs)", "",
               fmt(lat.percentile(50) * 1e3, 3) + " ms",
               fmt(lat.percentile(99) * 1e3, 3) + " ms"});
    std::printf("# %s node 0: %llu hits, %llu misses, %s resident\n", label,
                static_cast<unsigned long long>(tier.hits(0)),
                static_cast<unsigned long long>(tier.misses(0)),
                format_bytes(static_cast<double>(tier.used_bytes(0))).c_str());
  }
  std::printf(
      "# takeaways: lazy NVMe caching cannot absorb global shuffling; "
      "prestaging works but needs a full per-node replica on hardware many "
      "machines lack, plus a dataset-x-nodes staging read — DDStore gets "
      "epoch-0 speed from host RAM alone\n");
  return 0;
}

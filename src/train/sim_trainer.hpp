// Simulated DDP training loop (the measurement harness for the paper's
// throughput, breakdown, and scaling figures).
//
// Per step, following Fig. 1 of the paper: the CPU loads and collates the
// batch (real sample movement, virtual time); GPU forward/backward and the
// optimizer are charged from the ComputeModel; gradients all-reduce across
// ranks (ring model).  CPU data preparation for step s+1 overlaps the GPU's
// step s up to a bounded prefetch depth, matching PyTorch's DataLoader
// pipelining the paper describes (§2.2) — so end-to-end time is
// max(CPU pipeline, GPU pipeline), and a loader slower than compute shows
// up as GPU-Comm stall, exactly the effect discussed around Fig. 5.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "model/compute.hpp"
#include "train/loader.hpp"
#include "train/profiler.hpp"

namespace dds::train {

/// Which data-loading pipeline the trainer drives.
enum class LoaderMode {
  /// Per-sample DataLoader with GPU-timeline pipelining: the CPU loads
  /// batch s+1 while the GPU runs batch s, bounded by prefetch_depth
  /// back-pressure (PyTorch DataLoader semantics, §2.2).
  Pipelined,
  /// PrefetchingLoader: whole batches through DataBackend::load_batch
  /// (engaging DDStore's coalesced fetch planner), double-buffered so the
  /// fetch of batch k+1 hides under the compute window of batch k.
  Prefetching,
};

struct SimTrainerConfig {
  std::uint64_t input_dim = 6;
  /// Nominal head width (paper-scale; e.g. 37,500 for AISD-Ex smooth even
  /// when the materialized target is smaller).
  std::uint64_t output_dim = 1;
  LoaderMode loader_mode = LoaderMode::Pipelined;
  /// Pipelined: batches the CPU may run ahead of the GPU (>= 1).
  /// Prefetching: batches the loader stages ahead (0 = serial baseline).
  int prefetch_depth = 2;
};

struct EpochReport {
  /// One backend counter's per-epoch delta, summed across ranks.  Names
  /// come straight from the backend's MetricsRegistry, in registration
  /// order — every counter a stage registers appears here without any
  /// trainer-side plumbing.
  struct MetricSample {
    std::string name;
    std::uint64_t value = 0;
  };

  std::uint64_t epoch = 0;
  double epoch_seconds = 0;       ///< max across ranks
  std::uint64_t global_samples = 0;
  double throughput = 0;          ///< samples / second, job-wide
  PhaseProfile mean_profile;      ///< mean per-rank phase seconds
  /// Every backend counter's epoch delta, summed across ranks (empty when
  /// the backend keeps no registry).
  std::vector<MetricSample> metrics;
  /// Fetch seconds hidden under compute by the prefetching loader, summed
  /// across ranks (0 in Pipelined mode).
  double overlap_hidden_s = 0;

  /// Summed epoch delta of a named counter; 0 when the backend never
  /// registered it (a linear scan — reports are small and read rarely).
  std::uint64_t metric(const std::string& name) const {
    for (const auto& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
};

class SimulatedTrainer {
 public:
  SimulatedTrainer(simmpi::Comm& comm, DataBackend& backend, Sampler& sampler,
                   const model::MachineConfig& machine,
                   SimTrainerConfig config = {});

  /// Collective: runs one epoch; every rank returns the same report.
  EpochReport run_epoch(std::uint64_t epoch);

  /// Per-sample loading latencies recorded on this rank so far.
  const LatencyRecorder& sample_latencies() const {
    return ploader_ ? ploader_->latencies() : loader_.latencies();
  }
  void reset_latencies() {
    if (ploader_) {
      ploader_->reset_latencies();
    } else {
      loader_.reset_latencies();
    }
  }

  /// Collective: concatenates every rank's latencies on rank 0.
  LatencyRecorder gather_latencies();

  std::uint64_t gradient_bytes() const { return grad_bytes_; }
  const PhaseProfile& local_profile() const { return profile_; }

  /// Optional epoch-boundary hook, invoked (on every rank, with the
  /// rank-identical report) after each run_epoch finishes and before it
  /// returns.  This is where the elastic driver lives: the hook runs with
  /// no fetch in flight, so it may reshard the backend collectively.
  using EpochEndHook = std::function<void(const EpochReport&)>;
  void set_epoch_end_hook(EpochEndHook hook) {
    epoch_end_hook_ = std::move(hook);
  }

 private:
  void run_steps_pipelined();
  void run_steps_prefetching();

  simmpi::Comm comm_;
  DataBackend* backend_;
  Sampler* sampler_;
  model::ComputeModel compute_;
  SimTrainerConfig config_;
  DataLoader loader_;
  /// Engaged instead of loader_ when loader_mode == Prefetching.
  std::optional<PrefetchingLoader> ploader_;
  std::uint64_t grad_bytes_;
  PhaseProfile profile_;   ///< cumulative across epochs (this rank)
  EpochEndHook epoch_end_hook_;
};

}  // namespace dds::train

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
// StepPipeline is that step; SimulatedTrainer and every tenant of
// MultiTenantDriver run it.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "model/compute.hpp"
#include "train/loader.hpp"
#include "train/profiler.hpp"

namespace dds::train {

/// Inert: every value runs the same StepPipeline, and
/// DDStoreConfig::batch_fetch alone picks per-sample or coalesced reads.
/// Kept only because perfbench's workloads still assign it.
enum class LoaderMode { Pipelined, Prefetching };

struct SimTrainerConfig {
  std::uint64_t input_dim = 6;
  /// Nominal head width (paper-scale; e.g. 37,500 for AISD-Ex smooth even
  /// when the materialized target is smaller).
  std::uint64_t output_dim = 1;
  LoaderMode loader_mode = LoaderMode::Pipelined;  ///< inert, see LoaderMode
  /// Batches the CPU may run ahead of the GPU (>= 1).  1 is serial: the
  /// CPU loads batch s only once the GPU has finished batch s - 1.
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
  /// Load seconds that ran while the GPU was still busy with earlier
  /// steps, summed over steps and ranks (0 at prefetch_depth 1).
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

/// One rank's simulated DDP step loop.  Each step: the CPU waits until
/// the GPU has finished batch s - prefetch_depth, loads batch s with one
/// DataBackend::load_batch call and collates it; the GPU starts
/// forward/backward once it is free and the batch is ready; the gradient
/// all-reduce starts when the slowest rank's GPU is done; the optimizer
/// follows.  The GPU keeps its own timeline, so the CPU's work on batch s
/// overlaps the GPU's work on up to prefetch_depth - 1 earlier batches.
class StepPipeline {
 public:
  /// A depth no epoch reaches: the CPU never waits for the GPU.
  static constexpr int kUnboundedDepth = std::numeric_limits<int>::max();

  StepPipeline(simmpi::Comm& comm, DataBackend& backend, Sampler& sampler,
               const model::MachineConfig& machine,
               const SimTrainerConfig& config);

  /// Collective: starts `epoch` with the GPU idle at the current clock.
  void begin_epoch(std::uint64_t epoch);
  /// Whether every step of the epoch has run.
  bool done() const { return loader_.done(); }
  /// Collective: runs the epoch's next step.
  void step();

  /// When this rank's GPU finishes every step run so far.
  double gpu_free() const { return gpu_free_; }
  /// This epoch's Load seconds that ran while the GPU was busy: each step
  /// adds max(0, min(load_end, gpu_free) - load_start).
  double overlap_hidden_s() const { return hidden_; }
  /// Phase seconds of every step so far, across epochs.
  const PhaseProfile& profile() const { return profile_; }

 private:
  simmpi::Comm comm_;
  DataLoader loader_;
  model::ComputeModel compute_;
  std::uint64_t output_dim_;
  std::uint64_t grad_bytes_;
  std::size_t depth_;
  double gpu_free_ = 0;
  /// GPU-free times of this epoch's steps not yet waited on.
  std::deque<double> gpu_done_history_;
  double hidden_ = 0;
  PhaseProfile profile_;
};

class SimulatedTrainer {
 public:
  SimulatedTrainer(simmpi::Comm& comm, DataBackend& backend, Sampler& sampler,
                   const model::MachineConfig& machine,
                   SimTrainerConfig config = {});

  /// Collective: runs one epoch; every rank returns the same report.
  EpochReport run_epoch(std::uint64_t epoch);

  /// Collective: concatenates on rank 0 every rank's per-sample load
  /// latencies, as the backend recorded them (its `sample_load_s`).
  LatencyRecorder gather_latencies();

  /// Optional epoch-boundary hook, invoked (on every rank, with the
  /// rank-identical report) after each run_epoch finishes and before it
  /// returns.  This is where the elastic driver lives: the hook runs with
  /// no fetch in flight, so it may reshard the backend collectively.
  using EpochEndHook = std::function<void(const EpochReport&)>;
  void set_epoch_end_hook(EpochEndHook hook) {
    epoch_end_hook_ = std::move(hook);
  }

 private:
  simmpi::Comm comm_;
  DataBackend* backend_;
  Sampler* sampler_;
  StepPipeline pipeline_;
  EpochEndHook epoch_end_hook_;
};

}  // namespace dds::train

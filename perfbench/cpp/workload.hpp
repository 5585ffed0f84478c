// The benchmark's workloads and one measured instance of a workload.
//
// An instance is everything a user pays for once: stage the dataset, build
// the runtime, the store and the trainer (set-up), then train for the
// workload's epochs.  Every instance runs on the fiber engine, one OS
// thread, with deterministic virtual time, so its modeled numbers are a
// pure function of (workload, seed).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "core/store_config.hpp"
#include "datagen/spec.hpp"
#include "gnn/model.hpp"
#include "spans.hpp"
#include "train/sim_trainer.hpp"

namespace perfbench {

enum class TrainerKind {
  Simulated,  ///< train::SimulatedTrainer: modeled GPU, real data path
  Real,       ///< train::RealTrainer: the CPU GNN over a DDStore
};

struct WorkloadSpec {
  std::string name;
  TrainerKind trainer = TrainerKind::Simulated;
  int nranks = 1;
  dds::datagen::DatasetKind dataset = dds::datagen::DatasetKind::AisdExDiscrete;
  std::uint64_t num_samples = 0;
  std::uint64_t local_batch = 1;
  int epochs = 1;
  dds::core::DDStoreConfig store;
  /// Simulated only; Prefetching stages two batches ahead (the trainer's
  /// default depth).
  dds::train::LoaderMode loader = dds::train::LoaderMode::Pipelined;
  /// Simulated only; Real trainers always shuffle globally.
  dds::bench::ShuffleKind shuffle = dds::bench::ShuffleKind::Global;
  /// Real: the trained model.  Simulated: the model the GNN kernel probes
  /// run on this workload's batches (its input/output widths come from the
  /// data).
  dds::gnn::GnnConfig gnn;
  /// Setups measured per run at least (set-up is reported as a median).
  int min_setups = 3;
};

/// The workload called `name`, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);

struct InstanceOptions {
  /// Stop after set-up (no training).
  bool setup_only = false;
  /// Record benchmark spans and per-call fetch timing.
  bool spans = false;
  /// Arm the program's own EventTracer (Runtime::enable_tracing).
  bool event_tracer = false;
};

struct InstanceResult {
  // ---- host wall, seconds ----
  double setup_s = 0;     ///< instance start -> first training step
  double stage_s = 0;     ///< bench::StagedData (datagen + formats + fs)
  double build_s = 0;     ///< DDStore constructor across all ranks
  std::vector<double> epoch_wall_s;
  std::uint64_t samples_per_epoch = 0;  ///< global training samples
  std::uint64_t steps_per_epoch = 0;    ///< global training steps

  // ---- modeled (virtual time) ----
  std::vector<double> modeled_throughput;  ///< samples/s, per epoch
  std::vector<double> load_latency_s;      ///< every load, all ranks, sorted
  std::vector<double> stage_wait_s;        ///< cold-tier waits, sorted
  double preload_modeled_s = 0;            ///< max over ranks
  double val_loss = 0;                     ///< Real: after the last epoch
  /// Simulated: per-rank mean phase seconds summed over epochs
  /// (load, batch, compute, gradcomm, optimizer) and hidden fetch seconds.
  double phase_s[5] = {0, 0, 0, 0, 0};
  double overlap_hidden_s = 0;
  std::map<std::string, std::uint64_t> counters;  ///< summed over ranks

  // ---- correctness ----
  std::uint64_t loads = 0;       ///< samples requested from the store
  std::uint64_t checked = 0;     ///< served samples compared to staged bytes
  std::uint64_t mismatched = 0;  ///< of those, not byte-identical

  // ---- fiber engine ----
  std::uint64_t training_switches = 0;

  // ---- spans (InstanceOptions::spans) ----
  SpanLog spans;
  std::vector<double> fetch_call_wall_s;  ///< one per backend call
  std::uint64_t fetch_samples = 0;
  std::uint64_t yielded_calls = 0;  ///< calls during which a fiber switched
  double fetch_modeled_s = 0;       ///< virtual seconds inside fetch calls
  std::vector<double> step_wall_s;  ///< Real: rank-0 training steps

  // ---- event tracer (InstanceOptions::event_tracer) ----
  std::map<std::string, double> modeled_category_s;
  std::size_t event_capacity = 0;  ///< ring size per rank
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
  std::string event_summary;

  double training_wall_s() const {
    double s = 0;
    for (const double e : epoch_wall_s) s += e;
    return s;
  }

  /// Every modeled quantity the benchmark reports, bit for bit; two runs
  /// of one (workload, seed) must agree on all of them.
  std::vector<double> modeled_fingerprint() const;
};

InstanceResult run_instance(const WorkloadSpec& spec, std::uint64_t seed,
                            const InstanceOptions& options);

}  // namespace perfbench

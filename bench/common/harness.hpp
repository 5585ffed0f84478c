// Shared benchmark harness: stages scaled-down datasets on the simulated
// filesystem and runs simulated DDP training epochs with a chosen
// data-management methodology (PFF / CFF / DDStore), mirroring the
// experimental setup of the paper's §4.  Every bench binary (one per
// table/figure) builds on these helpers; see DESIGN.md's per-experiment
// index and EXPERIMENTS.md for paper-vs-measured numbers.
#pragma once

#include <memory>
#include <string>

#include "core/ddstore.hpp"
#include "datagen/dataset.hpp"
#include "faults/injector.hpp"
#include "formats/cff.hpp"
#include "formats/pff.hpp"
#include "train/real_trainer.hpp"
#include "train/sim_trainer.hpp"

namespace dds::bench {

enum class BackendKind { Pff, Cff, DDStore };

inline const char* backend_name(BackendKind k) {
  switch (k) {
    case BackendKind::Pff:
      return "PFF";
    case BackendKind::Cff:
      return "CFF";
    case BackendKind::DDStore:
      return "DDStore";
  }
  return "?";
}

/// Sampler choice for a scenario (§2.2): global shuffling is the access
/// pattern DDStore exists to serve; local shuffling confines each rank to
/// its own shard (and is the access pattern a per-rank hot-sample cache
/// captures completely once warm).
enum class ShuffleKind { Global, Local };

inline const char* shuffle_name(ShuffleKind k) {
  return k == ShuffleKind::Global ? "global" : "local";
}

/// One experiment configuration (a point in a figure).
struct Scenario {
  model::MachineConfig machine;
  datagen::DatasetKind kind = datagen::DatasetKind::AisdExDiscrete;
  std::uint64_t num_samples = 32'768;  ///< scaled-down sample count
  int nranks = 64;
  std::uint64_t local_batch = 128;
  int epochs = 2;
  std::uint64_t seed = 42;
  core::DDStoreConfig ddstore;  ///< width etc. (0 = single replica)
  /// Fault scenario; a default-constructed config arms nothing.
  faults::FaultConfig faults;
  /// Batches the CPU may run ahead of the GPU (>= 1; 1 is serial), as
  /// SimTrainerConfig::prefetch_depth.
  int prefetch_depth = 2;
  ShuffleKind shuffle = ShuffleKind::Global;
};

/// A staged dataset: simulated FS with the CFF container (always) and the
/// PFF tree (optional), plus format readers.
class StagedData {
 public:
  StagedData(const model::MachineConfig& machine, datagen::DatasetKind kind,
             std::uint64_t num_samples, int nranks, bool with_pff,
             std::uint64_t seed = 7, std::uint32_t subfiles = 8);

  fs::ParallelFileSystem& fs() { return fs_; }
  const datagen::SyntheticDataset& dataset() const { return *dataset_; }
  const formats::CffReader& cff() const { return *cff_; }
  const formats::PffReader& pff() const {
    DDS_CHECK_MSG(pff_ != nullptr, "PFF was not staged");
    return *pff_;
  }
  std::uint64_t input_dim() const { return input_dim_; }

 private:
  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> dataset_;
  std::unique_ptr<formats::CffReader> cff_;
  std::unique_ptr<formats::PffReader> pff_;
  std::uint64_t input_dim_;
};

/// Result of running `epochs` of simulated training under one backend.
struct RunResult {
  std::vector<train::EpochReport> epochs;
  LatencyRecorder latencies;   ///< per-sample load latency, all ranks
  double preload_seconds = 0;  ///< DDStore only
  core::DDStoreStats ddstore_stats;  ///< DDStore only (rank-0 snapshot)

  /// Mean throughput over measured epochs (drops none).
  double mean_throughput() const;
  /// Every backend metric summed over the run's epochs (already summed
  /// across ranks per epoch), in registry order.  Empty for file backends.
  std::vector<train::EpochReport::MetricSample> summed_metrics() const;
  /// One named counter summed over the run's epochs (0 if unregistered).
  std::uint64_t metric(const std::string& name) const;
};

/// Serializes metric samples as JSON object fields: `"name": value, ...`
/// (no surrounding braces; empty string when `metrics` is empty).  Benches
/// append this to their per-cell JSON so every registered counter is
/// reported without per-bench plumbing.
std::string metrics_json_fields(
    const std::vector<train::EpochReport::MetricSample>& metrics);

/// Runs the scenario with the given backend.  Virtual clocks are reset
/// after backend setup so the reported epochs measure steady-state
/// training, with preload reported separately.
RunResult run_training(StagedData& data, const Scenario& scenario,
                       BackendKind backend);

/// Throughput normalized to PFF for a set of backends (Fig. 4 style).
double normalize(double value, double baseline);

/// Convenience: scaled sample count giving at least `min_steps` full global
/// batches at `nranks`, but never below `floor_samples`.
std::uint64_t scaled_samples(int nranks, std::uint64_t local_batch,
                             std::uint64_t min_steps,
                             std::uint64_t floor_samples = 16'384);

/// Prints a CSV-ish row to stdout (comma + space separated).
void print_row(const std::vector<std::string>& cells);

std::string fmt(double v, int precision = 3);

}  // namespace dds::bench

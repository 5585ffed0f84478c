#include "common/harness.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sched/sampler.hpp"

namespace dds::bench {

namespace {

/// Stages the PFF tree by copying blobs out of the already-staged CFF
/// container (one generation pass total, not two).
void stage_pff_from_cff(fs::ParallelFileSystem& fs,
                        const formats::CffReader& cff,
                        const std::string& prefix,
                        std::uint64_t nominal_sample_bytes) {
  for (std::uint64_t i = 0; i < cff.num_samples(); ++i) {
    const ByteBuffer bytes = cff.read_bytes_raw(i);
    const std::uint64_t nominal =
        std::max<std::uint64_t>(nominal_sample_bytes, bytes.size());
    fs.write_file(formats::PffWriter::sample_path(prefix, i), ByteSpan(bytes),
                  nominal);
  }
}

}  // namespace

namespace {

/// Scaled-down datasets need a scaled-down page cache: the behaviour that
/// matters is the *ratio* of cache capacity to nominal dataset size (a
/// 19 GB Ising container fits in a 24 GB cache; a 1.5 TB smooth container
/// does not).  Shrinking the cache by the dataset's scale factor preserves
/// that ratio.
model::FsParams scaled_fs_params(const model::MachineConfig& machine,
                                 datagen::DatasetKind kind,
                                 std::uint64_t num_samples) {
  model::FsParams p = machine.fs;
  const auto& spec = datagen::dataset_spec(kind);
  const double scale = static_cast<double>(num_samples) /
                       static_cast<double>(spec.full_num_graphs);
  p.page_cache_bytes_per_node = std::max<std::uint64_t>(
      p.block_bytes * 4,
      static_cast<std::uint64_t>(
          static_cast<double>(p.page_cache_bytes_per_node) * scale));
  return p;
}

}  // namespace

StagedData::StagedData(const model::MachineConfig& machine,
                       datagen::DatasetKind kind, std::uint64_t num_samples,
                       int nranks, bool with_pff, std::uint64_t seed,
                       std::uint32_t subfiles)
    : fs_(scaled_fs_params(machine, kind, num_samples),
          machine.nodes_for_ranks(nranks)),
      dataset_(datagen::make_dataset(kind, num_samples, seed)) {
  formats::CffWriter::stage(fs_, "cff", *dataset_,
                            std::min<std::uint32_t>(
                                subfiles,
                                static_cast<std::uint32_t>(num_samples)));
  cff_ = std::make_unique<formats::CffReader>(
      fs_, "cff", dataset_->spec().nominal_cff_sample_bytes());
  if (with_pff) {
    stage_pff_from_cff(fs_, *cff_, "pff",
                       dataset_->spec().nominal_pff_sample_bytes());
    pff_ = std::make_unique<formats::PffReader>(
        fs_, "pff", num_samples, dataset_->spec().nominal_pff_sample_bytes());
  }
  input_dim_ = dataset_->make(0).node_feature_dim;
}

double RunResult::mean_throughput() const {
  DDS_CHECK(!epochs.empty());
  double s = 0;
  for (const auto& e : epochs) s += e.throughput;
  return s / static_cast<double>(epochs.size());
}

std::uint64_t RunResult::metric(const std::string& name) const {
  std::uint64_t sum = 0;
  for (const auto& e : epochs) sum += e.metric(name);
  return sum;
}

std::vector<train::EpochReport::MetricSample> RunResult::summed_metrics()
    const {
  std::vector<train::EpochReport::MetricSample> out;
  for (const auto& e : epochs) {
    if (out.empty()) {
      out = e.metrics;
      continue;
    }
    DDS_CHECK(e.metrics.size() == out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      DDS_CHECK(e.metrics[i].name == out[i].name);
      out[i].value += e.metrics[i].value;
    }
  }
  return out;
}

std::string metrics_json_fields(
    const std::vector<train::EpochReport::MetricSample>& metrics) {
  std::string out;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": " + std::to_string(metrics[i].value);
  }
  return out;
}

RunResult run_training(StagedData& data, const Scenario& scenario,
                       BackendKind backend) {
  RunResult result;

  // Each run starts from a cold filesystem (queues drained, caches empty);
  // a previous backend's timeline must not leak into this one.
  data.fs().reset_time_state();

  std::vector<LatencyRecorder> latencies(
      static_cast<std::size_t>(scenario.nranks));
  simmpi::Runtime rt(scenario.nranks, scenario.machine, scenario.seed);
  if (scenario.faults.any()) {
    rt.set_fault_injector(std::make_shared<faults::FaultInjector>(
        scenario.faults, scenario.nranks));
  }
  rt.run([&](simmpi::Comm& comm) {
    fs::FsClient client(data.fs(),
                        scenario.machine.node_of_rank(comm.world_rank()),
                        comm.clock(), comm.rng());

    std::unique_ptr<core::DDStore> store;
    std::unique_ptr<train::DataBackend> db;
    double preload = 0;
    switch (backend) {
      case BackendKind::Pff:
        db = std::make_unique<train::FileBackend>(data.pff(), client, "PFF");
        break;
      case BackendKind::Cff:
        db = std::make_unique<train::FileBackend>(data.cff(), client, "CFF");
        break;
      case BackendKind::DDStore:
        store = std::make_unique<core::DDStore>(comm, data.cff(), client,
                                                scenario.ddstore);
        preload = store->stats().preload_seconds;
        db = std::make_unique<train::DDStoreBackend>(*store);
        break;
    }

    // Measure steady-state epochs: clocks restart at zero after setup.
    // Shared state (network, FS) is reset by rank 0 between barriers; each
    // rank then zeroes its OWN clock so no rank's in-flight barrier deposit
    // can resurrect a pre-reset timestamp.
    comm.barrier();
    if (comm.rank() == 0) {
      comm.runtime().network().reset();
      data.fs().reset_time_state();
    }
    comm.barrier();
    comm.clock().reset();
    comm.barrier();
    if (store) store->reset_stats();

    std::unique_ptr<train::Sampler> sampler;
    if (scenario.shuffle == ShuffleKind::Local) {
      sampler = std::make_unique<train::LocalShuffleSampler>(
          data.dataset().size(), scenario.local_batch, scenario.seed);
    } else if (store != nullptr &&
               scenario.ddstore.locality_mode != core::LocalityMode::Shuffle) {
      // Locality-aware batch scheduling: same global shuffle, but each
      // global batch's slots are re-matched onto owning ranks against the
      // store's *live* layout (tracks elastic reshards automatically).
      sampler = std::make_unique<sched::LocalityAwareSampler>(
          train::GlobalShuffleSampler(data.dataset().size(),
                                      scenario.local_batch, scenario.seed),
          &store->layout(), scenario.ddstore.locality_mode);
    } else {
      sampler = std::make_unique<train::GlobalShuffleSampler>(
          data.dataset().size(), scenario.local_batch, scenario.seed);
    }
    train::SimTrainerConfig cfg;
    cfg.input_dim = data.input_dim();
    cfg.output_dim = data.dataset().spec().target_dim;
    cfg.prefetch_depth = scenario.prefetch_depth;
    train::SimulatedTrainer trainer(comm, *db, *sampler, scenario.machine,
                                    cfg);

    std::vector<train::EpochReport> reports;
    for (int e = 0; e < scenario.epochs; ++e) {
      reports.push_back(trainer.run_epoch(static_cast<std::uint64_t>(e)));
    }
    latencies[static_cast<std::size_t>(comm.rank())] = load_latencies(*db);

    if (comm.rank() == 0) {
      result.epochs = std::move(reports);
      result.preload_seconds = preload;
      if (store) result.ddstore_stats = store->stats();
    }
    comm.barrier();  // nobody tears down while peers still read
  });
  for (const LatencyRecorder& rank : latencies) result.latencies.merge(rank);
  return result;
}

LatencyRecorder load_latencies(const train::DataBackend& backend) {
  const MetricsRegistry* registry = backend.metrics();
  const LatencyRecorder* mine =
      registry == nullptr ? nullptr : registry->find_latency("sample_load_s");
  return mine == nullptr ? LatencyRecorder{} : *mine;
}

double normalize(double value, double baseline) {
  DDS_CHECK(baseline > 0);
  return value / baseline;
}

std::uint64_t scaled_samples(int nranks, std::uint64_t local_batch,
                             std::uint64_t min_steps,
                             std::uint64_t floor_samples) {
  return std::max<std::uint64_t>(
      floor_samples,
      local_batch * static_cast<std::uint64_t>(nranks) * min_steps);
}

void print_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::fputs(cells[i].c_str(), stdout);
    if (i + 1 < cells.size()) std::fputs(", ", stdout);
  }
  std::fputc('\n', stdout);
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace dds::bench

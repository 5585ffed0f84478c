#include "train/sim_trainer.hpp"

#include <algorithm>

#include "common/tracing/tracer.hpp"

namespace dds::train {

StepPipeline::StepPipeline(simmpi::Comm& comm, DataBackend& backend,
                           Sampler& sampler,
                           const model::MachineConfig& machine,
                           const SimTrainerConfig& config)
    : comm_(comm),
      loader_(backend, sampler, comm.clock()),
      compute_(machine),
      output_dim_(config.output_dim),
      grad_bytes_(model::hydragnn_param_bytes(config.input_dim,
                                              config.output_dim)),
      depth_(static_cast<std::size_t>(config.prefetch_depth)) {
  DDS_CHECK(config.prefetch_depth >= 1);
}

void StepPipeline::begin_epoch(std::uint64_t epoch) {
  loader_.begin_epoch(epoch, comm_);
  gpu_free_ = comm_.clock().now();
  gpu_done_history_.clear();
  hidden_ = 0;
}

void StepPipeline::step() {
  auto& clock = comm_.clock();
  auto& net = comm_.runtime().network();
  // GPU phases record explicit [t0, t1]: the modeled GPU timeline runs
  // ahead of the CPU clock, so their spans cannot come from RAII guards.
  tracing::EventTracer* const tr = comm_.tracer();

  // Cross-rank CPU sync: the previous step's gradient all-reduce finished
  // at the same instant on every rank, so loader timelines re-align here.
  // (This also keeps virtual-clock skew bounded, which the shared-resource
  // queueing model requires — see BusyResource's contract.)
  {
    const auto cpu_now = comm_.allgather_untimed(clock.now());
    double max_cpu = clock.now();
    for (const double t : cpu_now) max_cpu = std::max(max_cpu, t);
    clock.advance_to(max_cpu);
  }
  // Bounded prefetch: the CPU may not start batch s until the GPU has
  // finished batch s - prefetch_depth (buffer back-pressure).
  if (gpu_done_history_.size() >= depth_) {
    clock.advance_to(gpu_done_history_.front());
    gpu_done_history_.pop_front();
  }

  // ---- CPU: load ----
  const double t_load0 = clock.now();
  const auto batch = loader_.next();
  DDS_CHECK(batch.has_value());
  const double t_load1 = clock.now();
  profile_.add(Phase::Load, t_load1 - t_load0);
  hidden_ += std::max(0.0, std::min(t_load1, gpu_free_) - t_load0);
  if (tr != nullptr) {
    tr->record(tracing::Category::Train, "load", t_load0, t_load1);
  }

  // ---- CPU: collate ----
  const model::BatchShape shape{batch->num_graphs, batch->num_nodes,
                                batch->num_edges(), output_dim_};
  const double t_batch =
      compute_.batching_time(shape, loader_.nominal_batch_bytes());
  clock.advance(t_batch);
  profile_.add(Phase::Batch, t_batch);
  const double cpu_done = clock.now();
  if (tr != nullptr) {
    tr->record(tracing::Category::Train, "collate", cpu_done - t_batch,
               cpu_done);
  }

  // ---- GPU: forward + backward (overlapped with CPU of later steps) ----
  const double gpu_start = std::max(gpu_free_, cpu_done);
  const double fb = compute_.forward_backward_time(shape);
  const double gpu_done = gpu_start + fb;
  profile_.add(Phase::Forward, fb / 3.0);
  profile_.add(Phase::Backward, 2.0 * fb / 3.0);

  // ---- gradient all-reduce: starts when the slowest rank finishes ----
  const auto all_done = comm_.allgather_untimed(gpu_done);
  double max_done = gpu_done;
  for (const double d : all_done) max_done = std::max(max_done, d);
  const double comm_end =
      net.allreduce_time(comm_.size(), grad_bytes_, max_done);
  profile_.add(Phase::GradComm, comm_end - gpu_done);

  // ---- optimizer ----
  const double t_opt = compute_.optimizer_time(grad_bytes_);
  profile_.add(Phase::Optimizer, t_opt);
  gpu_free_ = comm_end + t_opt;
  gpu_done_history_.push_back(gpu_free_);
  if (tr != nullptr) {
    tr->record(tracing::Category::Train, "forward", gpu_start,
               gpu_start + fb / 3.0);
    tr->record(tracing::Category::Train, "backward", gpu_start + fb / 3.0,
               gpu_done);
    tracing::EventArgs comm_args;
    comm_args.bytes = static_cast<std::int64_t>(grad_bytes_);
    tr->record(tracing::Category::Train, "allreduce_grad", gpu_done,
               comm_end, comm_args);
    tr->record(tracing::Category::Train, "optimizer", comm_end,
               comm_end + t_opt);
  }
}

SimulatedTrainer::SimulatedTrainer(simmpi::Comm& comm, DataBackend& backend,
                                   Sampler& sampler,
                                   const model::MachineConfig& machine,
                                   SimTrainerConfig config)
    : comm_(comm),
      backend_(&backend),
      sampler_(&sampler),
      pipeline_(comm, backend, sampler, machine, config) {}

EpochReport SimulatedTrainer::run_epoch(std::uint64_t epoch) {
  auto& clock = comm_.clock();

  comm_.barrier();  // all ranks enter the epoch together
  const double epoch_begin = clock.now();
  const PhaseProfile profile_at_start = pipeline_.profile();
  // Generic metric accounting: snapshot the backend's registry, diff at the
  // epoch's end.  Registry layouts are rank-identical (registration-order
  // contract), so the per-rank delta vectors can be summed elementwise.
  const MetricsRegistry* registry = backend_->metrics();
  const std::vector<std::uint64_t> counters_at_start =
      registry == nullptr ? std::vector<std::uint64_t>{}
                          : registry->counter_values();

  pipeline_.begin_epoch(epoch);
  while (!pipeline_.done()) pipeline_.step();
  // The epoch ends when this rank's GPU pipeline drains.
  clock.advance_to(pipeline_.gpu_free());

  const double local_duration = clock.now() - epoch_begin;
  const double epoch_seconds =
      comm_.allreduce(local_duration, simmpi::Op::Max);

  const std::uint64_t steps = sampler_->steps_per_epoch();
  EpochReport report;
  report.epoch = epoch;
  report.epoch_seconds = epoch_seconds;
  report.global_samples = steps * sampler_->local_batch() *
                          static_cast<std::uint64_t>(comm_.size());
  report.throughput =
      epoch_seconds > 0
          ? static_cast<double>(report.global_samples) / epoch_seconds
          : 0.0;
  report.mean_profile =
      pipeline_.profile().diff(profile_at_start).allreduce_mean(comm_);

  // Metric counters: this rank's delta over the epoch, summed across ranks
  // elementwise (untimed: no clock advances, though the exchange still
  // reorders the fiber schedule — see Comm::allgather_untimed).
  // The reduction is collective, so every rank participates even when its
  // backend keeps no registry (it contributes an empty vector).
  std::vector<std::uint64_t> delta;
  if (registry != nullptr) {
    delta = registry->counter_values();
    DDS_CHECK_MSG(delta.size() == counters_at_start.size(),
                  "metrics registered mid-epoch break delta accounting");
    for (std::size_t i = 0; i < delta.size(); ++i) {
      delta[i] -= counters_at_start[i];
    }
  }
  comm_.allreduce_inplace_untimed(std::span<std::uint64_t>(delta),
                                  simmpi::Op::Sum);
  if (registry != nullptr) {
    const auto& names = registry->counter_names();
    report.metrics.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      report.metrics.push_back(EpochReport::MetricSample{names[i], delta[i]});
    }
  }
  for (const double h :
       comm_.allgather_untimed(pipeline_.overlap_hidden_s())) {
    report.overlap_hidden_s += h;
  }
  // Epoch boundary: no fetch is in flight on any rank, so the hook may run
  // collective work (the elastic driver reshards the backend here).
  if (epoch_end_hook_) epoch_end_hook_(report);
  return report;
}

LatencyRecorder SimulatedTrainer::gather_latencies() {
  const MetricsRegistry* registry = backend_->metrics();
  const LatencyRecorder* mine =
      registry == nullptr ? nullptr : registry->find_latency("sample_load_s");
  const auto all = comm_.gatherv(
      mine == nullptr ? std::span<const double>() : std::span(mine->raw()),
      0);
  LatencyRecorder out(all.size());
  for (const double v : all) out.add(v);
  return out;
}

}  // namespace dds::train

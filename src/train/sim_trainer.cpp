#include "train/sim_trainer.hpp"

#include <deque>

#include "common/tracing/tracer.hpp"

namespace dds::train {

SimulatedTrainer::SimulatedTrainer(simmpi::Comm& comm, DataBackend& backend,
                                   Sampler& sampler,
                                   const model::MachineConfig& machine,
                                   SimTrainerConfig config)
    : comm_(comm),
      backend_(&backend),
      sampler_(&sampler),
      compute_(machine),
      config_(config),
      loader_(backend, sampler, comm.clock()),
      grad_bytes_(model::hydragnn_param_bytes(config.input_dim,
                                              config.output_dim)) {
  if (config.loader_mode == LoaderMode::Prefetching) {
    DDS_CHECK(config.prefetch_depth >= 0);
    ploader_.emplace(backend, sampler, comm_.clock(),
                     PrefetchConfig{.depth = config.prefetch_depth});
  } else {
    DDS_CHECK(config.prefetch_depth >= 1);
  }
}

EpochReport SimulatedTrainer::run_epoch(std::uint64_t epoch) {
  auto& clock = comm_.clock();

  comm_.barrier();  // all ranks enter the epoch together
  const double epoch_begin = clock.now();
  const PhaseProfile profile_at_start = profile_;
  // Generic metric accounting: snapshot the backend's registry, diff at the
  // epoch's end.  Registry layouts are rank-identical (registration-order
  // contract), so the per-rank delta vectors can be summed elementwise.
  const MetricsRegistry* registry = backend_->metrics();
  const std::vector<std::uint64_t> counters_at_start =
      registry == nullptr ? std::vector<std::uint64_t>{}
                          : registry->counter_values();
  const double hidden_at_start =
      ploader_ ? ploader_->overlap_hidden_seconds() : 0.0;

  if (ploader_) {
    ploader_->begin_epoch(epoch, comm_);
    run_steps_prefetching();
  } else {
    loader_.begin_epoch(epoch, comm_);
    run_steps_pipelined();
  }

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
  report.mean_profile = profile_.diff(profile_at_start).allreduce_mean(comm_);

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
  const double hidden_local =
      ploader_ ? ploader_->overlap_hidden_seconds() - hidden_at_start : 0.0;
  for (const double h : comm_.allgather_untimed(hidden_local)) {
    report.overlap_hidden_s += h;
  }
  // Epoch boundary: no fetch is in flight on any rank, so the hook may run
  // collective work (the elastic driver reshards the backend here).
  if (epoch_end_hook_) epoch_end_hook_(report);
  return report;
}

void SimulatedTrainer::run_steps_pipelined() {
  auto& clock = comm_.clock();
  auto& net = comm_.runtime().network();
  // GPU phases record explicit [t0, t1]: the modeled GPU timeline runs
  // ahead of the CPU clock, so their spans cannot come from RAII guards.
  tracing::EventTracer* const tr = comm_.tracer();

  double gpu_free = clock.now();
  std::deque<double> gpu_done_history;
  const std::uint64_t steps = sampler_->steps_per_epoch();
  const std::uint64_t nominal_batch_payload =
      sampler_->local_batch() * backend_->nominal_sample_bytes();

  for (std::uint64_t step = 0; step < steps; ++step) {
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
    if (gpu_done_history.size() >=
        static_cast<std::size_t>(config_.prefetch_depth)) {
      clock.advance_to(gpu_done_history.front());
      gpu_done_history.pop_front();
    }

    // ---- CPU: load ----
    const double t_load0 = clock.now();
    const auto batch = loader_.next();
    DDS_CHECK(batch.has_value());
    profile_.add(Phase::Load, clock.now() - t_load0);
    if (tr != nullptr) {
      tr->record(tracing::Category::Train, "load", t_load0, clock.now());
    }

    // ---- CPU: collate ----
    const model::BatchShape shape{batch->num_graphs, batch->num_nodes,
                                  batch->num_edges(), config_.output_dim};
    const double t_batch = compute_.batching_time(shape,
                                                  nominal_batch_payload);
    clock.advance(t_batch);
    profile_.add(Phase::Batch, t_batch);
    const double cpu_done = clock.now();
    if (tr != nullptr) {
      tr->record(tracing::Category::Train, "collate", cpu_done - t_batch,
                 cpu_done);
    }

    // ---- GPU: forward + backward (overlapped with CPU of later steps) ----
    const double gpu_start = std::max(gpu_free, cpu_done);
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
    gpu_free = comm_end + t_opt;
    gpu_done_history.push_back(gpu_free);
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

  // The epoch ends when this rank's GPU pipeline drains.
  clock.advance_to(gpu_free);
}

void SimulatedTrainer::run_steps_prefetching() {
  auto& clock = comm_.clock();
  auto& net = comm_.runtime().network();
  tracing::EventTracer* const tr = comm_.tracer();
  const std::uint64_t steps = sampler_->steps_per_epoch();
  const std::uint64_t nominal_batch_payload =
      sampler_->local_batch() * backend_->nominal_sample_bytes();

  for (std::uint64_t step = 0; step < steps; ++step) {
    // Same cross-rank CPU re-alignment as the pipelined loop (the gradient
    // all-reduce below synchronizes every rank each step anyway).
    {
      const auto cpu_now = comm_.allgather_untimed(clock.now());
      double max_cpu = clock.now();
      for (const double t : cpu_now) max_cpu = std::max(max_cpu, t);
      clock.advance_to(max_cpu);
    }

    // ---- load: staged batches are free, an empty buffer pays in full ----
    const double t_load0 = clock.now();
    const auto batch = ploader_->next();
    DDS_CHECK(batch.has_value());
    profile_.add(Phase::Load, clock.now() - t_load0);
    if (tr != nullptr) {
      tr->record(tracing::Category::Train, "load", t_load0, clock.now());
    }

    // ---- collate ----
    const model::BatchShape shape{batch->num_graphs, batch->num_nodes,
                                  batch->num_edges(), config_.output_dim};
    const double t_batch = compute_.batching_time(shape,
                                                  nominal_batch_payload);
    clock.advance(t_batch);
    profile_.add(Phase::Batch, t_batch);
    if (tr != nullptr) {
      tr->record(tracing::Category::Train, "collate", clock.now() - t_batch,
                 clock.now());
    }

    // ---- GPU forward+backward; the loader refills underneath ----
    const double fb = compute_.forward_backward_time(shape);
    const double t_fb0 = clock.now();
    ploader_->compute_window(fb);
    const double window = clock.now() - t_fb0;
    profile_.add(Phase::Forward, fb / 3.0);
    profile_.add(Phase::Backward, 2.0 * fb / 3.0);
    // Fetch overhang past the compute window is GPU idle time waiting on
    // data; attribute it to Load so the breakdown stays honest.
    if (window > fb) profile_.add(Phase::Load, window - fb);

    // ---- gradient all-reduce: starts when the slowest rank drains ----
    const double gpu_done = clock.now();
    const auto all_done = comm_.allgather_untimed(gpu_done);
    double max_done = gpu_done;
    for (const double d : all_done) max_done = std::max(max_done, d);
    const double comm_end =
        net.allreduce_time(comm_.size(), grad_bytes_, max_done);
    clock.advance_to(comm_end);
    profile_.add(Phase::GradComm, comm_end - gpu_done);

    // ---- optimizer ----
    const double t_opt = compute_.optimizer_time(grad_bytes_);
    clock.advance(t_opt);
    profile_.add(Phase::Optimizer, t_opt);
    if (tr != nullptr) {
      tr->record(tracing::Category::Train, "forward", t_fb0,
                 t_fb0 + fb / 3.0);
      tr->record(tracing::Category::Train, "backward", t_fb0 + fb / 3.0,
                 t_fb0 + fb);
      tracing::EventArgs comm_args;
      comm_args.bytes = static_cast<std::int64_t>(grad_bytes_);
      tr->record(tracing::Category::Train, "allreduce_grad", gpu_done,
                 comm_end, comm_args);
      tr->record(tracing::Category::Train, "optimizer", comm_end - t_opt,
                 comm_end);
    }
  }
}

LatencyRecorder SimulatedTrainer::gather_latencies() {
  const auto& mine = sample_latencies().raw();
  const auto all =
      comm_.gatherv(std::span<const double>(mine.data(), mine.size()), 0);
  LatencyRecorder out(all.size());
  for (const double v : all) out.add(v);
  return out;
}

}  // namespace dds::train

#include "workload.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "common/harness.hpp"
#include "common/tracing/export.hpp"
#include "core/ddstore.hpp"
#include "simmpi/fiber.hpp"
#include "train/real_trainer.hpp"
#include "train/sampler.hpp"

namespace perfbench {

namespace {

using namespace dds;

std::vector<WorkloadSpec> make_workloads() {
  gnn::GnnConfig gnn_cfg;
  gnn_cfg.hidden = 32;
  gnn_cfg.pna_layers = 2;
  gnn_cfg.fc_layers = 2;

  std::vector<WorkloadSpec> out;
  {
    // The paper's headline point: 256 Perlmutter nodes, one replica over
    // all ranks, one lock/get/unlock per sample (Fig. 3), global shuffle.
    WorkloadSpec w;
    w.name = "scale_1024";
    w.nranks = 1024;
    w.dataset = datagen::DatasetKind::AisdExDiscrete;
    w.num_samples = 65'536;
    w.local_batch = 16;
    w.epochs = 3;
    w.store.batch_fetch = core::BatchFetchMode::PerSample;
    w.loader = train::LoaderMode::Pipelined;
    w.gnn = gnn_cfg;
    out.push_back(w);
  }
  {
    // The planned fetch path: 8 replica groups of 8, coalesced vectored
    // gets under a prefetching loader, a bounded per-rank sample cache,
    // and half of every chunk in the cold tier behind a bounded staged set.
    // Each rank reshuffles its own 1,024-sample shard every epoch (local
    // shuffle), the pattern a per-rank cache serves; under a global
    // shuffle a rank meets a sample again with odds of about one in the
    // dataset size, so no affordable cache would hit.  A shard lies wholly
    // in the hot or wholly in the cold half of its owner's chunk; the cache
    // (hot) and the staged set (cold) each hold about two thirds of a shard
    // of ~3 KB samples, so both fill in the first epoch and then evict
    // beside their hits.
    WorkloadSpec w;
    w.name = "tiered_batch_64";
    w.nranks = 64;
    w.dataset = datagen::DatasetKind::AisdExDiscrete;
    w.num_samples = 65'536;
    w.local_batch = 32;
    w.epochs = 3;
    w.shuffle = bench::ShuffleKind::Local;
    w.store.width = 8;
    w.store.batch_fetch = core::BatchFetchMode::Coalesced;
    w.store.cache_capacity_bytes = 2 * 1024 * 1024;
    w.store.tiered.hot_fraction = 0.5;
    w.store.tiered.staged_set_bytes = 2 * 1024 * 1024;
    w.loader = train::LoaderMode::Prefetching;
    w.gnn = gnn_cfg;
    out.push_back(w);
  }
  {
    // The only workload whose host time is GNN math: two ranks train the
    // real CPU model through a default DDStore.  25 steps per epoch, so
    // eight epochs give the 200 steps a p95 step time needs.
    WorkloadSpec w;
    w.name = "gnn_train";
    w.trainer = TrainerKind::Real;
    w.nranks = 2;
    w.dataset = datagen::DatasetKind::AisdExSmooth;
    w.num_samples = 512;
    w.local_batch = 8;
    w.epochs = 8;
    w.gnn = gnn_cfg;
    w.min_setups = 40;
    out.push_back(w);
  }
  return out;
}

/// Host-level rendezvous of every rank that leaves virtual clocks alone.
void host_sync(simmpi::Comm& comm) { (void)comm.allgather_untimed(0); }

/// Per-instance state every rank's body shares.  All ranks are fibers on
/// one OS thread, so plain fields suffice.
struct Shared {
  InstanceResult* result = nullptr;
  const InstanceOptions* options = nullptr;
  const formats::CffReader* cff = nullptr;
  simmpi::FiberScheduler* fibers = nullptr;
  std::uint64_t local_batch = 1;
  int root_span = -1;
  int epoch_span = -1;
  int eval_span = -1;
  /// The span fetch spans attach to: the open rank-0 step or evaluation
  /// span (Real), else the open epoch span.
  int container = -1;
};

/// Every Nth sample a rank is served is kept and compared against the
/// staged bytes between epochs.
constexpr std::uint64_t kRetainStride = 16;

/// The DDStore backend with the benchmark's timing seam around each call.
class TimedBackend final : public train::DataBackend {
 public:
  TimedBackend(core::DDStore& store, Shared& shared, int rank)
      : store_(&store), shared_(&shared), rank_(rank),
        timed_(shared.options->spans) {}

  graph::GraphSample load(std::uint64_t id) override {
    const Call call = begin();
    graph::GraphSample sample = store_->get(id);
    end(call, 1);
    retain(id, sample);
    return sample;
  }

  std::vector<graph::GraphSample> load_batch(
      std::span<const std::uint64_t> ids) override {
    const Call call = begin();
    std::vector<graph::GraphSample> out = store_->get_batch(ids);
    end(call, ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) retain(ids[i], out[i]);
    return out;
  }

  std::uint64_t num_samples() const override { return store_->num_samples(); }
  std::uint64_t nominal_sample_bytes() const override {
    return store_->nominal_sample_bytes();
  }
  std::string name() const override { return "DDStore"; }
  void epoch_start() override { epoch_samples_ = 0; }
  const MetricsRegistry* metrics() const override {
    return &store_->metrics();
  }

  /// Compares every retained sample with its staged bytes, then forgets
  /// them.  Called between epochs, outside every timed region.
  void verify_retained() {
    InstanceResult& r = *shared_->result;
    for (const auto& [id, sample] : retained_) {
      ++r.checked;
      if (sample.to_bytes() != shared_->cff->read_bytes_raw(id)) {
        ++r.mismatched;
      }
    }
    retained_.clear();
  }

 private:
  struct Call {
    double t0 = 0;
    double v0 = 0;
    std::uint64_t switches = 0;
  };

  Call begin() const {
    if (!timed_) return {};
    return Call{host_now(), store_->comm().clock().now(),
                shared_->fibers->switch_count()};
  }

  void end(const Call& call, std::size_t n) {
    InstanceResult& r = *shared_->result;
    r.loads += n;
    const std::uint64_t step = epoch_samples_ / shared_->local_batch;
    epoch_samples_ += n;
    if (!timed_) return;
    const double t1 = host_now();
    r.fetch_call_wall_s.push_back(t1 - call.t0);
    r.fetch_samples += n;
    r.fetch_modeled_s += store_->comm().clock().now() - call.v0;
    if (shared_->fibers->switch_count() != call.switches) ++r.yielded_calls;
    r.spans.add("fetch.call", shared_->container, call.t0, t1, rank_,
                step_id(rank_, step));
  }

  void retain(std::uint64_t id, const graph::GraphSample& sample) {
    if (served_++ % kRetainStride == 0) retained_.emplace_back(id, sample);
  }

  core::DDStore* store_;
  Shared* shared_;
  int rank_;
  bool timed_;
  std::uint64_t epoch_samples_ = 0;
  std::uint64_t served_ = 0;
  std::vector<std::pair<std::uint64_t, graph::GraphSample>> retained_;
};

/// EventTracer ring per rank: enough for every event one rank records in
/// the instance (measured: at most about 5 per served sample plus a few
/// per step), with a wide margin; only recorded events take memory.  A
/// full ring drops events, which fails the run.
std::size_t event_capacity(const WorkloadSpec& spec) {
  const auto nranks = static_cast<std::uint64_t>(spec.nranks);
  const auto epochs = static_cast<std::uint64_t>(spec.epochs);
  const std::uint64_t samples = spec.num_samples * epochs / nranks + 1;
  const std::uint64_t steps =
      spec.num_samples / (spec.local_batch * nranks) * epochs + epochs;
  return static_cast<std::size_t>(2 * (8 * samples + 40 * steps) + 1024);
}

/// Virtual seconds covered by each category's spans, summed over ranks;
/// spans nested in a span of the same category count once.
std::map<std::string, double> category_seconds(
    const std::vector<const tracing::EventTracer*>& tracers) {
  std::map<std::string, double> out;
  for (int c = 0; c < tracing::kNumCategories; ++c) {
    out[tracing::category_name(static_cast<tracing::Category>(c))] = 0;
  }
  for (const tracing::EventTracer* tracer : tracers) {
    std::vector<tracing::Event> events = tracer->snapshot();
    std::sort(events.begin(), events.end(),
              [](const tracing::Event& a, const tracing::Event& b) {
                if (a.category != b.category) return a.category < b.category;
                return a.t0 < b.t0;
              });
    std::size_t i = 0;
    while (i < events.size()) {
      const tracing::Category c = events[i].category;
      double covered = 0;
      double end = -std::numeric_limits<double>::infinity();
      for (; i < events.size() && events[i].category == c; ++i) {
        const double lo = std::max(events[i].t0, end);
        if (events[i].t1 > lo) covered += events[i].t1 - lo;
        end = std::max(end, events[i].t1);
      }
      out[tracing::category_name(c)] += covered;
    }
  }
  return out;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> all = make_workloads();
  for (const WorkloadSpec& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<double> InstanceResult::modeled_fingerprint() const {
  std::vector<double> f = modeled_throughput;
  f.insert(f.end(), load_latency_s.begin(), load_latency_s.end());
  f.insert(f.end(), stage_wait_s.begin(), stage_wait_s.end());
  f.push_back(preload_modeled_s);
  f.push_back(val_loss);
  f.insert(f.end(), std::begin(phase_s), std::end(phase_s));
  f.push_back(overlap_hidden_s);
  for (const auto& [name, value] : counters) {
    f.push_back(static_cast<double>(value));
  }
  return f;
}

InstanceResult run_instance(const WorkloadSpec& spec, std::uint64_t seed,
                            const InstanceOptions& options) {
  InstanceResult result;
  SpanLog& log = result.spans;
  const bool spans = options.spans;
  const auto machine = model::perlmutter();
  const int epochs = options.setup_only ? 0 : spec.epochs;

  const double t_start = host_now();
  Shared shared;
  shared.result = &result;
  shared.options = &options;
  shared.local_batch = spec.local_batch;
  if (spans) shared.root_span = log.open("workload.instance", -1, t_start);
  shared.container = shared.root_span;

  const double t_stage = host_now();
  bench::StagedData data(machine, spec.dataset, spec.num_samples, spec.nranks,
                         /*with_pff=*/false, seed);
  result.stage_s = host_now() - t_stage;
  if (spans) log.add("datagen.stage", shared.root_span, t_stage, host_now());
  shared.cff = &data.cff();

  const double t_runtime = host_now();
  simmpi::Runtime rt(spec.nranks, machine, seed, /*deterministic=*/true,
                     simmpi::Engine::Fibers);
  if (options.event_tracer) {
    result.event_capacity = event_capacity(spec);
    rt.enable_tracing(result.event_capacity);
  }
  shared.fibers = rt.fiber_scheduler();
  DDS_CHECK_MSG(shared.fibers != nullptr, "the benchmark needs fibers");
  if (spans) log.add("simmpi.runtime", shared.root_span, t_runtime, host_now());

  FirstExit build_begin, build_end, setup_end, train_end;
  std::vector<FirstExit> epoch_begin(static_cast<std::size_t>(epochs));
  std::vector<FirstExit> epoch_end(static_cast<std::size_t>(epochs));
  std::uint64_t switches_at_start = 0;

  rt.run([&](simmpi::Comm& comm) {
    const bool rank0 = comm.rank() == 0;
    fs::FsClient client(data.fs(), machine.node_of_rank(comm.world_rank()),
                        comm.clock(), comm.rng());

    host_sync(comm);
    build_begin.hit();
    core::DDStore store(comm, data.cff(), client, spec.store);
    host_sync(comm);
    if (build_end.hit()) {
      result.build_s = build_end.t - build_begin.t;
      if (spans) {
        log.add("core.build", shared.root_span, build_begin.t, build_end.t);
      }
    }
    result.preload_modeled_s =
        std::max(result.preload_modeled_s, store.stats().preload_seconds);

    // Steady state, as bench::run_training measures it: shared network and
    // filesystem state reset, every clock back at zero, counters cleared.
    comm.barrier();
    if (rank0) {
      comm.runtime().network().reset();
      data.fs().reset_time_state();
    }
    comm.barrier();
    comm.clock().reset();
    comm.barrier();
    store.reset_stats();
    if (tracing::EventTracer* tracer = comm.tracer()) tracer->clear();

    TimedBackend backend(store, shared, comm.rank());
    std::unique_ptr<train::Sampler> sampler;
    std::optional<train::SimulatedTrainer> sim;
    std::optional<train::RealTrainer> real;
    if (spec.trainer == TrainerKind::Simulated) {
      if (spec.shuffle == bench::ShuffleKind::Local) {
        sampler = std::make_unique<train::LocalShuffleSampler>(
            spec.num_samples, spec.local_batch, seed);
      } else {
        sampler = std::make_unique<train::GlobalShuffleSampler>(
            spec.num_samples, spec.local_batch, seed);
      }
      train::SimTrainerConfig cfg;
      cfg.input_dim = data.input_dim();
      cfg.output_dim = data.dataset().spec().target_dim;
      cfg.loader_mode = spec.loader;
      sim.emplace(comm, backend, *sampler, machine, cfg);
    } else {
      train::RealTrainerConfig cfg;
      cfg.gnn = spec.gnn;
      cfg.gnn.input_dim = data.input_dim();
      cfg.gnn.output_dim = data.dataset().make(0).target_dim();
      cfg.local_batch = spec.local_batch;
      cfg.seed = seed;
      cfg.optimizer.lr = 1e-3;
      cfg.optimizer.weight_decay = 1e-4;
      cfg.plateau_factor = 0.5;
      cfg.plateau_patience = 8;
      real.emplace(comm, backend, cfg);
    }
    host_sync(comm);
    if (setup_end.hit()) {
      result.setup_s = setup_end.t - t_start;
      switches_at_start = shared.fibers->switch_count();
      if (spans) {
        log.add("train.setup", shared.root_span, build_end.t, setup_end.t);
      }
    }

    for (int e = 0; e < epochs; ++e) {
      const auto ue = static_cast<std::uint64_t>(e);
      const auto se = static_cast<std::size_t>(e);
      host_sync(comm);
      if (epoch_begin[se].hit() && spans) {
        shared.epoch_span =
            log.open("train.epoch", shared.root_span, epoch_begin[se].t);
        shared.container = shared.epoch_span;
      }

      if (sim) {
        const train::EpochReport report = sim->run_epoch(ue);
        if (rank0) {
          result.samples_per_epoch = report.global_samples;
          result.steps_per_epoch = sampler->steps_per_epoch();
          result.modeled_throughput.push_back(report.throughput);
          const train::PhaseProfile& p = report.mean_profile;
          result.phase_s[0] += p.get(train::Phase::Load);
          result.phase_s[1] += p.get(train::Phase::Batch);
          result.phase_s[2] += p.get(train::Phase::Forward) +
                               p.get(train::Phase::Backward);
          result.phase_s[3] += p.get(train::Phase::GradComm);
          result.phase_s[4] += p.get(train::Phase::Optimizer);
          result.overlap_hidden_s += report.overlap_hidden_s;
        }
      } else {
        const double v0 = comm.clock().now();
        real->begin_epoch(ue);
        const std::uint64_t steps = real->train_steps();
        for (std::uint64_t s = 0; s < steps; ++s) {
          int step_span = -1;
          if (rank0 && spans) {
            step_span = log.open("gnn.step", shared.epoch_span, host_now(), 0,
                                 step_id(0, s));
            shared.container = step_span;
          }
          real->train_step(s);
          // Every rank finishes step s before rank 0 starts step s + 1, so
          // rank 0's span covers exactly one step of every rank.
          host_sync(comm);
          if (step_span >= 0) {
            const double t1 = host_now();
            log.close(step_span, t1);
            result.step_wall_s.push_back(
                t1 - log.spans()[static_cast<std::size_t>(step_span)].t0);
            shared.container = shared.epoch_span;
          }
        }
        if (rank0 && spans) {
          shared.eval_span = log.open("gnn.eval", shared.epoch_span,
                                      host_now(), 0, step_id(0, steps));
          shared.container = shared.eval_span;
        }
        const train::TrainEpochResult r = real->finish_epoch(ue);
        double modeled = 0;
        for (const double d :
             comm.allgather_untimed(comm.clock().now() - v0)) {
          modeled = std::max(modeled, d);
        }
        if (rank0) {
          result.steps_per_epoch = steps;
          result.samples_per_epoch = steps * spec.local_batch *
                                     static_cast<std::uint64_t>(comm.size());
          result.modeled_throughput.push_back(
              static_cast<double>(result.samples_per_epoch) / modeled);
          result.val_loss = r.val_loss;
        }
      }

      host_sync(comm);
      if (epoch_end[se].hit()) {
        result.epoch_wall_s.push_back(epoch_end[se].t - epoch_begin[se].t);
        if (spans) {
          if (shared.eval_span >= 0) log.close(shared.eval_span, epoch_end[se].t);
          log.close(shared.epoch_span, epoch_end[se].t);
          shared.eval_span = -1;
          shared.container = shared.root_span;
        }
      }
      backend.verify_retained();
    }

    host_sync(comm);
    if (train_end.hit()) {
      result.training_switches =
          shared.fibers->switch_count() - switches_at_start;
    }
    const MetricsRegistry& metrics = store.metrics();
    if (const LatencyRecorder* lat = metrics.find_latency("sample_load_s")) {
      result.load_latency_s.insert(result.load_latency_s.end(),
                                   lat->raw().begin(), lat->raw().end());
    }
    if (const LatencyRecorder* lat = metrics.find_latency("stage_wait_s")) {
      result.stage_wait_s.insert(result.stage_wait_s.end(), lat->raw().begin(),
                                 lat->raw().end());
    }
    const std::vector<std::uint64_t> values = metrics.counter_values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      result.counters[metrics.counter_names()[i]] += values[i];
    }
    host_sync(comm);  // nobody tears down while peers still read
  });

  std::sort(result.load_latency_s.begin(), result.load_latency_s.end());
  std::sort(result.stage_wait_s.begin(), result.stage_wait_s.end());
  if (options.event_tracer) {
    const auto tracers = rt.traces();
    for (const tracing::EventTracer* t : tracers) {
      result.events_recorded += t->size();
      result.events_dropped += t->dropped();
    }
    result.modeled_category_s = category_seconds(tracers);
    result.event_summary = tracing::summary_table(tracing::summarize(tracers));
  }
  if (spans) log.close(shared.root_span, host_now());
  return result;
}

}  // namespace perfbench

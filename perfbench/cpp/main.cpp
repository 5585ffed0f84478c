// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--source <id>]
//
// --trace 0 measures the end-to-end metrics: it repeats the workload
// (set-up + training) for about --seconds and reports medians.  --trace 1
// runs the workload plain, with the benchmark's spans, plain again, and with
// the program's EventTracer armed, then single-kernel probes, and reports
// the per-layer metrics.  Both check correctness; the last line of stdout
// is the JSON result, and the exit code is 0 only when every check passed.
// perfbench/README.md describes every metric.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "probes.hpp"
#include "report.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
  std::string source = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--source") {
      args.source = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

/// The engine and determinism are fixed in code: fibers (the Runtime is
/// always constructed with Engine::Fibers), deterministic mode, and the
/// default fiber stack, whatever the environment says.
void pin_environment() {
  ::unsetenv("DDS_ENGINE");
  ::unsetenv("DDS_FIBER_STACK_KB");
  ::setenv("DDS_DETERMINISTIC", "1", 1);
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// Named correctness failures; each counts as one failed operation.
class Gates {
 public:
  void fail(const std::string& what, std::uint64_t count = 1) {
    if (count != 0) failures_[what] += count;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [what, count] : failures_) n += count;
    return n;
  }
  void print() const {
    for (const auto& [what, count] : failures_) {
      std::printf("# FAILED %s: %llu\n", what.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }

  /// Checks one instance; `reference` (when given) is an earlier instance
  /// of the same (workload, seed) whose modeled numbers must match bit for
  /// bit.
  void check(const WorkloadSpec& spec, const InstanceResult& r,
             const InstanceResult* reference) {
    fail("served_bytes_mismatch", r.mismatched);
    if (r.checked == 0) fail("no_served_sample_checked");
    for (const char* counter :
         {"checksum_failures", "degraded_reads", "coalesced_fallbacks"}) {
      const auto it = r.counters.find(counter);
      if (it != r.counters.end()) fail(counter, it->second);
    }
    if (spec.trainer == TrainerKind::Real && !std::isfinite(r.val_loss)) {
      fail("val_loss_not_finite");
    }
    if (samples_beyond(r.load_latency_s.size(), 99.0) < 10) {
      fail("modeled_load_p99_under_10_beyond");
    }
    if (reference != nullptr && !same_bits(r.modeled_fingerprint(),
                                           reference->modeled_fingerprint())) {
      fail("modeled_not_bit_identical");
    }
  }

 private:
  static bool same_bits(const std::vector<double>& a,
                        const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(a[i]) !=
          std::bit_cast<std::uint64_t>(b[i])) {
        return false;
      }
    }
    return true;
  }

  std::map<std::string, std::uint64_t> failures_;
};

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

std::uint64_t counter(const InstanceResult& r, const std::string& name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

/// "p99 of 196608" — which percentile a tail metric is, and of how many.
std::string tail_note(double p, std::size_t n) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %zu, %zu beyond", p, n,
                samples_beyond(n, p));
  return buf;
}

/// The modeled (virtual-clock) end-to-end numbers: deterministic for one
/// (workload, seed), and gated bit-identical across every instance.
void add_modeled(Report& report, const WorkloadSpec& spec,
                 const InstanceResult& r) {
  report.add("modeled_samples_per_s", mean(r.modeled_throughput),
             "samples/virt_s",
             "mean of " + std::to_string(r.modeled_throughput.size()) +
                 " epochs");
  const std::size_t n = r.load_latency_s.size();
  report.add("modeled_load_p50_ms",
             percentile_sorted(r.load_latency_s, 50.0) * 1e3, "virt_ms",
             "p50 of " + std::to_string(n) + " loads");
  report.add("modeled_load_p99_ms",
             percentile_sorted(r.load_latency_s, 99.0) * 1e3, "virt_ms",
             tail_note(99.0, n) + " loads");
  report.add("val_loss",
             spec.trainer == TrainerKind::Real ? r.val_loss : 0.0, "MSE",
             spec.trainer == TrainerKind::Real ? "after the last epoch"
                                               : "no GNN is trained");
}

/// Prints the result and returns the exit code.
int finish(const Report& report, const Gates& gates, std::uint64_t attempted) {
  std::fputs(report.lines().c_str(), stdout);
  gates.print();
  const std::uint64_t failed = gates.failed();
  std::printf("# failed_op_share = %s  [%llu failed / %llu loads attempted]\n",
              exact(share(static_cast<double>(failed),
                          static_cast<double>(attempted)))
                  .c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("%s\n", report.json(failed == 0, attempted, failed).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

int run_untraced(const WorkloadSpec& spec, const Args& args) {
  Gates gates;
  std::uint64_t attempted = 0;
  std::vector<double> setups;
  std::vector<double> epoch_rates;
  std::optional<InstanceResult> first;
  int instances = 0;

  const double t0 = host_now();
  InstanceOptions setup_only;
  setup_only.setup_only = true;
  for (int i = 0; i + 1 < spec.min_setups; ++i) {
    setups.push_back(run_instance(spec, args.seed, setup_only).setup_s);
  }
  double last = 0;
  do {
    const double ti = host_now();
    InstanceResult r = run_instance(spec, args.seed, {});
    last = host_now() - ti;
    ++instances;
    attempted += r.loads;
    setups.push_back(r.setup_s);
    for (const double wall : r.epoch_wall_s) {
      epoch_rates.push_back(static_cast<double>(r.samples_per_epoch) / wall);
    }
    gates.check(spec, r, first ? &*first : nullptr);
    if (!first) first = std::move(r);
  } while (host_now() - t0 + last <= args.seconds);

  const InstanceResult& r = *first;
  std::printf("# %d instances, %zu set-ups, %zu epochs in %.2f s\n",
              instances, setups.size(), epoch_rates.size(), host_now() - t0);
  Report modeled;
  add_modeled(modeled, spec, r);
  std::printf("# modeled, bit-identical across instances:\n%s",
              modeled.lines().c_str());

  Report report;
  report.add("setup_s", median(setups), "s",
             "median of " + std::to_string(setups.size()) + " set-ups");
  std::sort(epoch_rates.begin(), epoch_rates.end());
  report.add("wall_samples_per_s", median(epoch_rates), "samples/s",
             "median of " + std::to_string(epoch_rates.size()) + " epochs of " +
                 std::to_string(r.samples_per_epoch) + " samples; quartiles " +
                 exact(percentile_sorted(epoch_rates, 25.0)) + " .. " +
                 exact(percentile_sorted(epoch_rates, 75.0)));
  report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  return finish(report, gates, attempted);
}

int run_traced(const WorkloadSpec& spec, const Args& args) {
  Gates gates;
  // Warm the process (allocator, page cache) the way the untraced run's
  // set-up-only instances do, so the plain instance is not the one that
  // pays first-touch costs.
  InstanceOptions warm_up;
  warm_up.setup_only = true;
  (void)run_instance(spec, args.seed, warm_up);
  // Plain instances on both sides of the span-traced one, so slow drift of
  // the host's speed biases the tracing overhead neither way.
  const InstanceResult plain = run_instance(spec, args.seed, {});
  InstanceOptions span_options;
  span_options.spans = true;
  const InstanceResult traced = run_instance(spec, args.seed, span_options);
  const InstanceResult plain_after = run_instance(spec, args.seed, {});
  InstanceOptions event_options;
  event_options.event_tracer = true;
  const InstanceResult evented = run_instance(spec, args.seed, event_options);
  const ProbeResult probe = run_probes(spec, args.seed);
  const std::uint64_t attempted =
      plain.loads + traced.loads + plain_after.loads + evented.loads;

  gates.check(spec, plain, nullptr);
  gates.check(spec, traced, &plain);
  gates.check(spec, plain_after, &plain);
  gates.check(spec, evented, &plain);
  gates.fail("fetch_calls_that_yielded", traced.yielded_calls);
  gates.fail("event_tracer_dropped_events", evented.events_dropped);
  const bool real = spec.trainer == TrainerKind::Real;
  if (real && samples_beyond(traced.step_wall_s.size(), 95.0) < 10) {
    gates.fail("gnn_step_p95_under_10_beyond");
  }

  if (!args.out.empty()) {
    std::filesystem::create_directories(args.out);
    const std::string path = args.out + "/spans-" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    std::ofstream(path) << traced.spans.chrome_json();
    std::printf("# spans: %s (%zu spans)\n", path.c_str(),
                traced.spans.spans().size());
  }
  std::printf("# EventTracer: %llu events kept, %llu dropped, ring of %zu "
              "per rank; summary (virtual seconds, inclusive):\n%s",
              static_cast<unsigned long long>(evented.events_recorded),
              static_cast<unsigned long long>(evented.events_dropped),
              evented.event_capacity, evented.event_summary.c_str());

  const double train_wall = traced.training_wall_s();
  std::vector<double> plain_epochs = plain.epoch_wall_s;
  plain_epochs.insert(plain_epochs.end(), plain_after.epoch_wall_s.begin(),
                      plain_after.epoch_wall_s.end());
  const double plain_epoch = median(plain_epochs);
  const double fetch_wall = sum(traced.fetch_call_wall_s);
  const auto samples = static_cast<double>(traced.fetch_samples);
  std::vector<double> calls = traced.fetch_call_wall_s;
  std::sort(calls.begin(), calls.end());
  const std::map<std::string, double> self = traced.spans.self_by_layer();
  auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  double eval_wall = 0;
  double epoch_self = 0;
  const std::vector<double> span_self = traced.spans.self_times();
  for (std::size_t i = 0; i < span_self.size(); ++i) {
    const SpanRecord& s = traced.spans.spans()[i];
    if (std::strcmp(s.name, "gnn.eval") == 0) eval_wall += s.t1 - s.t0;
    if (std::strcmp(s.name, "train.epoch") == 0) epoch_self += span_self[i];
  }
  const auto epochs = static_cast<double>(spec.epochs);
  const double steps = static_cast<double>(plain.steps_per_epoch) * epochs;
  auto c = [&](const char* name) {
    return static_cast<double>(counter(plain, name));
  };

  Report report;
  report.add("datagen.stage_s", traced.stage_s, "s");
  report.add("core.build_s", traced.build_s, "s");
  report.add("core.preload_modeled_s", plain.preload_modeled_s, "virt_s");
  report.add("common.checksum_ns_per_kib", probe.checksum_ns_per_kib,
             "ns/KiB",
             std::to_string(probe.sample_bytes) + " staged bytes of " +
                 std::to_string(probe.samples) + " samples");

  report.add("fetch.calls", static_cast<double>(calls.size()), "count");
  report.add("fetch.samples", samples, "count");
  report.add_ratio("fetch.wall_ns_per_sample", fetch_wall * 1e9, samples,
                   "ns", "samples", "ns");
  report.add("fetch.call_wall_p50_us", percentile_sorted(calls, 50.0) * 1e6,
             "us", "p50 of " + std::to_string(calls.size()) + " calls");
  const double tail = tail_percentile(calls.size());
  report.add("fetch.call_wall_tail_us", percentile_sorted(calls, tail) * 1e6,
             "us", tail_note(tail, calls.size()) + " calls");
  report.add_ratio("fetch.wall_share", fetch_wall, train_wall,
                   "s fetch (all ranks)", "s training");
  report.add("fetch.yielded_calls", static_cast<double>(traced.yielded_calls),
             "count", "of " + std::to_string(calls.size()) + " calls");
  report.add_ratio("fetch.modeled_s_per_sample", traced.fetch_modeled_s,
                   samples, "virt_s", "samples", "virt_s");
  report.add_ratio("fetch.remote_share", c("remote_gets"),
                   c("local_gets") + c("remote_gets"), "remote gets",
                   "gets");
  report.add_ratio("fetch.lock_epochs_per_sample", c("lock_epochs"),
                   static_cast<double>(plain.loads), "lock epochs",
                   "samples", "count");
  report.add_ratio("fetch.segments_per_transfer", c("coalesced_segments"),
                   c("coalesced_transfers"), "segments", "vectored gets",
                   "count");

  const double lookups = c("cache_hits") + c("cache_misses");
  report.add_ratio("cache.hit_rate", c("cache_hits"), lookups, "hits",
                   "lookups");
  report.add_ratio("cache.evictions_per_lookup", c("cache_evictions"),
                   lookups, "evictions", "lookups");

  const double cold = c("cold_misses") + c("staged_hits");
  report.add_ratio("store.cold_share", cold,
                   static_cast<double>(plain.loads), "cold lookups",
                   "samples");
  report.add_ratio("store.staged_hit_rate", c("staged_hits"), cold,
                   "staged-set hits", "cold lookups");
  const std::size_t waits = plain.stage_wait_s.size();
  const double wait_tail = tail_percentile(waits);
  report.add("store.stage_wait_tail_ms",
             wait_tail > 0 ? percentile_sorted(plain.stage_wait_s, wait_tail) *
                                 1e3
                           : 0.0,
             "virt_ms", tail_note(wait_tail, waits) + " cold-tier waits");
  report.add("store.backpressure_delays", c("stage_backpressure_delays"),
             "count");

  report.add("resilience.retries", c("retries"), "count");
  report.add("resilience.checksum_failures", c("checksum_failures"), "count");
  report.add("resilience.degraded_reads", c("degraded_reads"), "count");

  report.add("graph.decode_ns_per_sample", probe.decode_ns_per_sample, "ns");
  report.add("graph.collate_ns_per_graph", probe.collate_ns_per_graph, "ns");

  report.add_ratio("simmpi.fiber_switches_per_step",
                   static_cast<double>(plain.training_switches), steps,
                   "switches", "steps", "count");
  report.add("simmpi.allgather_us", probe.allgather_us, "us",
             std::to_string(spec.nranks) + " ranks");
  report.add("simmpi.barrier_us", probe.barrier_us, "us",
             std::to_string(spec.nranks) + " ranks");

  report.add("train.epoch_wall_s", plain_epoch, "s",
             "median of " + std::to_string(plain_epochs.size()) +
                 " untraced epochs");
  report.add_ratio("train.residual_wall_share", epoch_self, train_wall,
                   "s epoch self time", "s training");
  const char* phases[] = {"train.modeled_load_s", "train.modeled_batch_s",
                          "train.modeled_compute_s",
                          "train.modeled_gradcomm_s",
                          "train.modeled_optimizer_s"};
  for (int i = 0; i < 5; ++i) {
    report.add(phases[i], plain.phase_s[i] / epochs, "virt_s",
               "per rank per epoch");
  }
  report.add("train.overlap_hidden_s", plain.overlap_hidden_s / epochs,
             "virt_s", "all ranks, per epoch");

  if (real) {
    // Only the real trainer has steps the benchmark can time one by one;
    // these lines are not part of the result object.
    std::vector<double> steps_wall = traced.step_wall_s;
    std::sort(steps_wall.begin(), steps_wall.end());
    Report step;
    step.add("gnn.step_wall_p50_ms", percentile_sorted(steps_wall, 50.0) * 1e3,
             "ms", "p50 of " + std::to_string(steps_wall.size()) + " steps");
    step.add("gnn.step_wall_p95_ms", percentile_sorted(steps_wall, 95.0) * 1e3,
             "ms", tail_note(95.0, steps_wall.size()) + " steps");
    std::printf("# rank-0 training steps:\n%s", step.lines().c_str());
  }
  report.add_ratio("gnn.eval_wall_share", eval_wall, train_wall,
                   "s evaluation", "s training");
  report.add("gnn.forward_us", probe.forward_us, "us");
  report.add("gnn.backward_us", probe.backward_us, "us");
  add_modeled(report, spec, plain);

  for (const char* cat : {"simmpi", "fetch", "cache", "transport",
                          "resilience", "verify", "train"}) {
    const auto it = evented.modeled_category_s.find(cat);
    report.add(std::string("modeled.") + cat + "_s",
               it == evented.modeled_category_s.end() ? 0.0 : it->second,
               "virt_s", "all ranks");
  }
  report.add_ratio("trace.overhead_share",
                   median(traced.epoch_wall_s) - plain_epoch, plain_epoch,
                   "s per epoch added by spans", "s per untraced epoch");
  report.add_ratio("trace.event_overhead_share",
                   median(evented.epoch_wall_s) - plain_epoch, plain_epoch,
                   "s per epoch added by the EventTracer",
                   "s per untraced epoch");

  for (const char* layer :
       {"workload", "datagen", "simmpi", "core", "train", "fetch", "gnn"}) {
    report.add(std::string("self.") + layer + "_s", self_of(layer), "s",
               "span self time");
  }
  return finish(report, gates, attempted);
}

}  // namespace

int main(int argc, char** argv) {
  pin_environment();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>] [--source <id>]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr || !valid_name(args.workload)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("# env compiler=\"%s\" build_type=%s nproc=%u source=%s "
              "engine=fibers deterministic=1\n",
              compiler(), PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), args.source.c_str());
  std::fflush(stdout);
  try {
    return args.trace == 0 ? run_untraced(*spec, args)
                           : run_traced(*spec, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

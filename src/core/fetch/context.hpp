// FetchContext: the state every fetch stage shares.
//
// The FetchEngine (core/fetch/engine.hpp) is built from explicit stages —
// Plan (core/fetch_plan.hpp), Cache, Transport, Resilience, Verify/Account
// — each of which sees the same immutable context: the communicators, the
// RMA window, the registry, the policy knobs, and the FetchMetrics bundle
// of registry-backed counters.  Stages never talk to each other through
// hidden globals; everything flows through this struct, which is what
// makes alternative stages (a second cache tier, a different transport)
// pluggable without touching the store.
#pragma once

#include <cstdint>

#include "common/metrics.hpp"
#include "core/layout.hpp"
#include "core/store_config.hpp"
#include "formats/reader.hpp"
#include "fs/parallel_fs.hpp"
#include "simmpi/window.hpp"

namespace dds::core::fetch {

/// References into the store's MetricsRegistry, one per fetch-path metric,
/// registered in a fixed order at engine construction.  Every rank
/// registers the same names in the same order, so cross-rank elementwise
/// sums of counter snapshots line up (see MetricsRegistry's contract).
///
/// Every counter is registered in every configuration: a stage whose
/// feature is off (hedging, tiering, locality scheduling) simply never
/// bumps its counters, so they read zero and the counter schema is the
/// same whatever the config.
struct FetchMetrics {
  explicit FetchMetrics(MetricsRegistry& registry)
      : local_gets(registry.counter("local_gets")),
        remote_gets(registry.counter("remote_gets")),
        bytes_fetched(registry.counter("bytes_fetched")),
        nominal_bytes_fetched(registry.counter("nominal_bytes_fetched")),
        retries(registry.counter("retries")),
        failovers(registry.counter("failovers")),
        checksum_failures(registry.counter("checksum_failures")),
        degraded_reads(registry.counter("degraded_reads")),
        breaker_trips(registry.counter("breaker_trips")),
        lock_epochs(registry.counter("lock_epochs")),
        rma_transfers(registry.counter("rma_transfers")),
        coalesced_transfers(registry.counter("coalesced_transfers")),
        coalesced_segments(registry.counter("coalesced_segments")),
        coalesced_bytes(registry.counter("coalesced_bytes")),
        lock_epochs_saved(registry.counter("lock_epochs_saved")),
        batch_dup_hits(registry.counter("batch_dup_hits")),
        coalesced_fallbacks(registry.counter("coalesced_fallbacks")),
        cache_hits(registry.counter("cache_hits")),
        cache_misses(registry.counter("cache_misses")),
        cache_evictions(registry.counter("cache_evictions")),
        cache_hit_bytes(registry.counter("cache_hit_bytes")),
        latency(registry.latency("sample_load_s")),
        hedged_fetches(registry.counter("hedged_fetches")),
        hedge_wins(registry.counter("hedge_wins")),
        hedge_mismatches(registry.counter("hedge_mismatches")),
        hedge_cancelled_bytes(registry.counter("hedge_cancelled_bytes")),
        quarantine_steers(registry.counter("quarantine_steers")),
        cold_misses(registry.counter("cold_misses")),
        staged_hits(registry.counter("staged_hits")),
        staged_hit_bytes(registry.counter("staged_hit_bytes")),
        staged_bytes(registry.counter("staged_bytes")),
        staged_evictions(registry.counter("staged_evictions")),
        stage_backpressure_delays(
            registry.counter("stage_backpressure_delays")),
        stage_wait(registry.latency("stage_wait_s")),
        sched_local_planned(registry.counter("sched_local_planned")),
        sched_remote_planned(registry.counter("sched_remote_planned")),
        sched_remote_bytes(registry.counter("sched_remote_bytes")) {}

  MetricsRegistry::Counter& local_gets;
  MetricsRegistry::Counter& remote_gets;
  MetricsRegistry::Counter& bytes_fetched;
  MetricsRegistry::Counter& nominal_bytes_fetched;
  MetricsRegistry::Counter& retries;
  MetricsRegistry::Counter& failovers;
  MetricsRegistry::Counter& checksum_failures;
  MetricsRegistry::Counter& degraded_reads;
  MetricsRegistry::Counter& breaker_trips;
  MetricsRegistry::Counter& lock_epochs;
  MetricsRegistry::Counter& rma_transfers;
  MetricsRegistry::Counter& coalesced_transfers;
  MetricsRegistry::Counter& coalesced_segments;
  MetricsRegistry::Counter& coalesced_bytes;
  MetricsRegistry::Counter& lock_epochs_saved;
  MetricsRegistry::Counter& batch_dup_hits;
  MetricsRegistry::Counter& coalesced_fallbacks;
  MetricsRegistry::Counter& cache_hits;
  MetricsRegistry::Counter& cache_misses;
  MetricsRegistry::Counter& cache_evictions;
  MetricsRegistry::Counter& cache_hit_bytes;
  LatencyRecorder& latency;
  // Hedging and health steering (Resilience stage, DDStoreConfig::hedge).
  MetricsRegistry::Counter& hedged_fetches;
  MetricsRegistry::Counter& hedge_wins;
  MetricsRegistry::Counter& hedge_mismatches;
  MetricsRegistry::Counter& hedge_cancelled_bytes;
  MetricsRegistry::Counter& quarantine_steers;
  // Tiering (Staging stage, tiered.enabled()).  stage_wait is the time a
  // consumer actually blocked on a staged completion (0 when the deep
  // queue fully hid the storage latency).
  MetricsRegistry::Counter& cold_misses;
  MetricsRegistry::Counter& staged_hits;
  MetricsRegistry::Counter& staged_hit_bytes;
  MetricsRegistry::Counter& staged_bytes;
  MetricsRegistry::Counter& staged_evictions;
  MetricsRegistry::Counter& stage_backpressure_delays;
  LatencyRecorder& stage_wait;
  // Locality scheduling (locality_mode != Shuffle): what the batch
  // scheduler *planned* (local vs remote placements as classified at get
  // time), which the bench sweep compares against the transport's actual
  // local_gets/remote_gets.
  MetricsRegistry::Counter& sched_local_planned;
  MetricsRegistry::Counter& sched_remote_planned;
  MetricsRegistry::Counter& sched_remote_bytes;
};

/// Everything a fetch stage may consult.  All pointers are non-owning and
/// outlive the engine (they point into the DDStore that built it).
///
/// The chunk map comes through `layout` — a pointer to the store's
/// *current* Layout value.  An elastic reshard swaps the store's Layout
/// (and re-splits its group comm) atomically at an epoch boundary; the
/// pointer stays stable, so stages re-read the new striping on their next
/// fetch without being rebuilt.
struct FetchContext {
  simmpi::Comm* comm = nullptr;   ///< the full training communicator
  simmpi::Comm* group = nullptr;  ///< this rank's replica group
  simmpi::Window* window = nullptr;
  const Layout* layout = nullptr;  ///< current striping (owner/offset/width)
  const DDStoreConfig* config = nullptr;
  const formats::SampleReader* reader = nullptr;  ///< degraded-mode FS reads
  fs::FsClient* fs_client = nullptr;
  FetchMetrics* metrics = nullptr;
  std::uint64_t nominal_sample_bytes = 0;

  const DataRegistry& registry() const { return layout->registry(); }
  int width() const { return layout->width(); }
  int replica_index() const { return layout->group_of(comm->rank()); }
  int num_replicas() const { return layout->num_groups(); }

  /// Comm rank of the member of *this rank's* replica group that owns
  /// group-rank `owner`'s chunk — the first target every fetch tries.
  int primary_target(int owner) const {
    return layout->primary_target(comm->rank(), owner);
  }

  model::VirtualClock& clock() const { return comm->clock(); }

  /// This rank's event tracer (nullptr when tracing is off).  Stages pass
  /// it to tracing::Span guards; the null case costs one branch.
  tracing::EventTracer* tracer() const { return comm->tracer(); }
};

}  // namespace dds::core::fetch

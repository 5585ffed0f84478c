// DDStore configuration and the stats view.
//
// Split out of ddstore.hpp so the fetch stages (core/fetch/) can see the
// policy knobs without a circular include on the store itself.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/registry.hpp"

namespace dds::core {

/// How get_batch turns a batch of sample ids into RMA traffic.  All modes
/// dedupe repeated ids (fetch once, decode per occurrence) and return
/// samples in request order.
enum class BatchFetchMode {
  /// The paper's Fig. 3 walkthrough: one lock/get/unlock per sample, in
  /// request order.
  PerSample,
  /// Full planner path: one lock epoch AND one vectored get per distinct
  /// target, with registry-adjacent samples merged into single ranges
  /// (core/fetch_plan.hpp).  A transfer that fails transport or delivers
  /// samples with bad checksums degrades to per-sample resilient fetches
  /// for just the affected ids.
  Coalesced,
};

/// How the per-step sample->rank assignment inside each global batch is
/// chosen (src/sched/).  The per-batch *multiset* of samples is identical
/// in every mode — only which rank executes which slice changes — so
/// training semantics are preserved (bench_fig13_convergence gates the
/// loss curves bit-identical across modes).
enum class LocalityMode {
  /// The paper's access pattern: rank r takes the r-th slice of the
  /// shuffled global batch, so ~(w-1)/w of fetches are remote at width w.
  Shuffle,
  /// Owner-first greedy matching: each slot is placed on a rank whose
  /// group-rank owns the sample's chunk (hot-tier-aware — a cold-resident
  /// sample counts as remote everywhere), overflow round-robins.  Optimal
  /// for the 0/1 cost model; see sched/assign.hpp.
  OwnerGreedy,
};

/// Two-tier (out-of-core) store policy.  With hot_fraction < 1 each owner
/// pins only the storage-order prefix of its chunk in the RMA window's
/// *hot shard*; the suffix lives in the cold tier (the simulated parallel
/// FS).  Cold misses are enqueued into a deep asynchronous staging queue
/// whose completions are modeled at issue time without advancing any clock
/// (like every fetch-path transfer), so staging overlaps hot RMA traffic
/// and — through the trainer's prefetch depth — training compute.
/// Staged bytes are promoted into the rank's staged set, so re-touches are
/// served at memory speed.  Off by default (hot_fraction = 1.0): no staging
/// branch is taken and the tier counters stay zero.
struct TieredConfig {
  /// Fraction of each owner's chunk bytes pinned hot; 1.0 disables tiering.
  double hot_fraction = 1.0;
  /// Maximum in-flight cold-tier reads per rank: deeper queues hide more
  /// storage latency, shallower ones model constrained submission rings.
  int staging_depth = 8;
  /// Capacity of the per-rank staged set in actual payload bytes;
  /// 0 sizes it automatically to the rank's cold-prefix complement
  /// (hot shards plus staged set never exceed one full chunk).
  std::uint64_t staged_set_bytes = 0;

  bool enabled() const { return hot_fraction < 1.0; }
};

struct DDStoreConfig {
  /// Replica-group cardinality w; 0 means w = comm.size() (single replica,
  /// the paper's default).  comm.size() must be divisible by width.
  int width = 0;
  Placement placement = Placement::Block;
  /// When true, every replica group charges its own preload FS reads
  /// (as a real deployment would); when false only group 0 pays, which
  /// keeps giant scaling benches cheap when preload time is excluded.
  bool charge_replica_preload = true;
  /// Batch fetch strategy (see BatchFetchMode): per-sample lock/get/unlock
  /// (the paper) or one coalesced vectored transfer per target.
  BatchFetchMode batch_fetch = BatchFetchMode::PerSample;
  /// Per-rank hot-sample LRU cache capacity in *actual* payload bytes
  /// (0 disables the Cache stage entirely).  Hits are served before any
  /// lock epoch at a modeled memcpy cost (CpuParams::cache_hit_service_s +
  /// nominal bytes / memcpy bandwidth) and never touch the transport,
  /// retry budget, or circuit breakers.
  std::uint64_t cache_capacity_bytes = 0;
  /// Gray-failure robustness: hedged backup fetches plus health-scored
  /// candidate steering.  A fetch whose modeled completion exceeds the
  /// target's adaptive deadline (per-target EWMA + sigma * EW-deviation, a
  /// p99-ish bound) fires one backup get at the sample's twin in a sibling
  /// replica group; the first response wins, and when both land the
  /// payloads are verified byte-identical.  Separately, targets whose
  /// health score drops below the quarantine threshold are steered around
  /// (tried last) before any breaker declares them dead.  The deadline and
  /// score constants are HealthParams' defaults (core/fetch/health.hpp).
  /// Off by default; the hedge counters then stay zero.
  bool hedge = false;
  /// Out-of-core tiering: hot-shard windows over a cold tier with async
  /// staging (see TieredConfig).  Off by default.
  TieredConfig tiered;
  /// Locality-aware batch scheduling (src/sched/): when OwnerGreedy, the
  /// sampler permutes each global batch's sample->rank assignment so
  /// samples land on ranks that own them, and the engine counts the
  /// sched_* planning counters.  Default Shuffle keeps the paper's
  /// assignment.
  LocalityMode locality_mode = LocalityMode::Shuffle;
};

/// A point-in-time view over the store's MetricsRegistry, materialized by
/// DDStore::stats().  Field names double as the registry's counter names;
/// reset_stats() preserves the construction-time preload facts (and the
/// cache configuration, which lives in DDStoreConfig, not here).
struct DDStoreStats {
  std::uint64_t local_gets = 0;
  std::uint64_t remote_gets = 0;
  std::uint64_t bytes_fetched = 0;          ///< actual bytes
  std::uint64_t nominal_bytes_fetched = 0;  ///< paper-scale bytes
  /// Per-sample graph-loading latency (fetch + decode), the quantity in
  /// the paper's Fig. 6/12 and Tables 2/3.
  LatencyRecorder latency;

  // Resilience counters (all zero unless fault injection is armed).
  std::uint64_t retries = 0;            ///< re-attempts after a failed get
  std::uint64_t failovers = 0;          ///< samples served by a non-primary target
  std::uint64_t checksum_failures = 0;  ///< payloads rejected by checksum
  std::uint64_t degraded_reads = 0;     ///< samples served via FS fallback
  std::uint64_t breaker_trips = 0;      ///< circuit-breaker open events

  // Fetch-path traffic counters (every batch mode maintains these, so the
  // lock/coalesce ablations can report exactly what each policy issued).
  // Every lock epoch brackets exactly one transfer, so the two are equal.
  std::uint64_t lock_epochs = 0;    ///< MPI_Win_lock/unlock pairs taken
  std::uint64_t rma_transfers = 0;  ///< window get/getv calls issued

  // Planner counters (Coalesced batches only).
  std::uint64_t coalesced_transfers = 0;  ///< vectored gets issued
  std::uint64_t coalesced_segments = 0;   ///< merged ranges across them
  std::uint64_t coalesced_bytes = 0;      ///< actual bytes they moved
  /// Lock epochs a per-sample policy would have taken minus the epochs the
  /// batched policy actually planned (unique samples - target epochs per
  /// batch); fallback re-fetches do not subtract from this planner metric.
  std::uint64_t lock_epochs_saved = 0;
  /// Duplicate ids inside batches served from the first fetch (deduped).
  std::uint64_t batch_dup_hits = 0;
  /// Coalesced transfers that degraded to per-sample resilient fetches
  /// (transport failure or checksum mismatch inside the staged payload).
  std::uint64_t coalesced_fallbacks = 0;

  // Cache stage counters (all zero unless cache_capacity_bytes > 0).
  std::uint64_t cache_hits = 0;       ///< unique lookups served from cache
  std::uint64_t cache_misses = 0;     ///< unique lookups that went to fetch
  std::uint64_t cache_evictions = 0;  ///< entries displaced by inserts
  std::uint64_t cache_hit_bytes = 0;  ///< actual payload bytes served hot

  // Hedging counters (all zero unless DDStoreConfig::hedge).
  std::uint64_t hedged_fetches = 0;   ///< backup gets fired past a deadline
  std::uint64_t hedge_wins = 0;       ///< fetches the backup response won
  std::uint64_t hedge_mismatches = 0; ///< twin payloads that disagreed
  /// Redundant wire bytes of the losing response when both legs of a hedge
  /// delivered (the cancellation cost; never double-counted into
  /// bytes_fetched, which records each sample once).
  std::uint64_t hedge_cancelled_bytes = 0;
  /// Fetches whose candidate order demoted a quarantined-but-alive primary
  /// (health steering engaged before any breaker opened).
  std::uint64_t quarantine_steers = 0;

  // Tiering counters (all zero unless TieredConfig::enabled()).
  std::uint64_t cold_misses = 0;      ///< unique cold lookups sent to staging
  std::uint64_t staged_hits = 0;      ///< unique cold lookups served staged-set
  std::uint64_t staged_hit_bytes = 0; ///< actual bytes those hits served
  std::uint64_t staged_bytes = 0;     ///< actual bytes read from the cold tier
  std::uint64_t staged_evictions = 0; ///< staged-set entries displaced
  /// Staged reads whose issue slipped because all staging_depth slots were
  /// in flight (queue backpressure engaged).
  std::uint64_t stage_backpressure_delays = 0;

  // Scheduling counters (all zero unless locality_mode != Shuffle).  The
  // fetch planner classifies every *planned* unique sample by where the
  // scheduler put it: on a rank whose hot chunk holds it (scheduled-local)
  // or not (scheduled-remote).  Against local_gets/remote_gets — which
  // record what the wire actually did — these show how much of the
  // scheduler's plan survived caching, failover, and staging.
  std::uint64_t sched_local_planned = 0;   ///< unique samples planned local
  std::uint64_t sched_remote_planned = 0;  ///< unique samples planned remote
  std::uint64_t sched_remote_bytes = 0;    ///< nominal bytes planned remote

  // Elastic counters (all zero until src/elastic/ reshards or rebuilds).
  std::uint64_t reshards = 0;            ///< adopted layout swaps
  std::uint64_t reshard_pull_bytes = 0;  ///< bytes pulled from remote chunks
  std::uint64_t reshard_keep_bytes = 0;  ///< bytes reused from the old chunk
  std::uint64_t rank_rebuilds = 0;       ///< dead-rank chunks rebuilt
  std::uint64_t rebuild_bytes = 0;       ///< bytes re-hosted by rebuilds
  /// Bytes re-staged from the cold tier because a reshard made them hot on
  /// a rank where no old layout held them hot (tiered reshards only).
  std::uint64_t reshard_cold_stage_bytes = 0;

  // Preload facts: set once at construction, preserved by reset_stats()
  // (epoch-boundary resets must not erase what construction cost).
  std::uint64_t preload_retries = 0;
  double preload_seconds = 0.0;

  /// Fraction of cache lookups that hit (0 when the cache never engaged).
  double cache_hit_rate() const {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) / static_cast<double>(lookups);
  }
};

}  // namespace dds::core

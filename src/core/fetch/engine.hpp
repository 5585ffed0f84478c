// FetchEngine: the composable DDStore read path.
//
// One engine per rank, built from explicit stages over a shared
// FetchContext (see DESIGN.md for the stage diagram):
//
//   Plan        core/fetch_plan.hpp — dedupe, group by owner, merge ranges
//   Cache       core/fetch/cache.hpp — per-rank hot-sample LRU, served
//               before any lock epoch
//   Staging     core/fetch/staging.hpp — tiered mode only: samples outside
//               the hot shard are staged from the cold tier through a deep
//               async queue instead of ever reaching the transport
//   Transport   core/fetch/transport.hpp — per-sample get / coalesced getv
//               window traffic, one lock epoch per transfer, + the
//               fault-injection seam
//   Resilience  core/fetch/resilience.hpp — retry, breaker, failover,
//               degraded FS read, wrapping the transport
//   Verify/     checksum validation + the local/remote/bytes/latency
//   Account     accounting every caller observes through the registry
//
// The engine owns the per-request control flow that used to live inside
// ddstore.cpp; the store keeps construction (preload, registry, window)
// and delegates every read to the engine.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/fetch/cache.hpp"
#include "core/fetch/context.hpp"
#include "core/fetch/resilience.hpp"
#include "core/fetch/staging.hpp"
#include "core/fetch/transport.hpp"
#include "core/fetch_plan.hpp"
#include "formats/reader.hpp"

namespace dds::core::fetch {

class FetchEngine {
 public:
  /// All references must outlive the engine (they belong to the DDStore
  /// that builds it).  `layout` is the store's current Layout *value
  /// member*: an elastic reshard assigns a new Layout in place, so the
  /// engine observes the new striping through the same address.  Registers
  /// the fetch metrics in `metrics` — every rank constructs its engine the
  /// same way, so registry layouts match across ranks.
  FetchEngine(simmpi::Comm& comm, simmpi::Comm& group, simmpi::Window& window,
              const Layout& layout, const DDStoreConfig& config,
              const formats::SampleReader& reader, fs::FsClient& fs_client,
              std::uint64_t nominal_sample_bytes, MetricsRegistry& metrics);

  FetchEngine(const FetchEngine&) = delete;
  FetchEngine& operator=(const FetchEngine&) = delete;

  /// Fetches the serialized bytes of one sample (cache hit, RMA get, or
  /// local copy).
  ByteBuffer get_bytes(std::uint64_t id);

  /// Fetches and decodes one sample; records its loading latency.
  graph::GraphSample get(std::uint64_t id);

  /// Fetches a batch in request order — duplicates and all — under the
  /// configured BatchFetchMode; repeated ids are fetched once and decoded
  /// per occurrence.  The batch's fetched payloads land in one
  /// uninitialized arena, freed when the call returns.
  std::vector<graph::GraphSample> get_batch(std::span<const std::uint64_t> ids);

  const SampleCache& cache() const { return cache_; }

  /// The Staging stage, present iff config.tiered.enabled() (tests and the
  /// store's staged-set view).
  const StagingStage* staging() const {
    return staging_.has_value() ? &*staging_ : nullptr;
  }

  /// Targets the Resilience stage holds state for (tests).
  std::size_t resilience_targets() const { return resilience_.targets(); }

  /// Resilience-stage breaker state for one comm-rank target (the elastic
  /// driver's fault-suspect signal and its post-rebuild reset).
  bool breaker_open(int target) const {
    return resilience_.breaker_open(target);
  }
  void reset_target_health(int target) { resilience_.reset_target(target); }

  /// Continuous [0, 1] health of one comm-rank target (0 while its breaker
  /// is open) — the elastic driver's gray-failure suspicion signal.
  double health_score(int target) const {
    return resilience_.health_score(target);
  }

 private:
  /// Resilient single-sample fetch into `dst` (one lock epoch per
  /// transfer attempt), then the Verify/Account bookkeeping.
  void fetch_into(std::uint64_t id, MutableByteSpan dst);

  /// Serves one sample's payload into `dst` (entry.length bytes): a cache
  /// hit, the cold tier, or a resilient fetch whose bytes are then
  /// admitted to the cache.
  void load_payload(std::uint64_t id, const DataRegistry::Entry& entry,
                    MutableByteSpan dst);

  std::vector<graph::GraphSample> get_batch_per_sample(
      std::span<const std::uint64_t> ids);
  std::vector<graph::GraphSample> get_batch_coalesced(
      std::span<const std::uint64_t> ids);

  /// Executes one target's coalesced transfer into `landing`: lock,
  /// vectored get, unlock.  `segments` is scratch reused across targets.
  /// Returns false when the transport failed (caller falls back to
  /// per-sample resilient fetches for this target's ids).
  bool run_coalesced_transfer(
      const FetchPlan& plan, const TargetPlan& tp, MutableByteSpan landing,
      std::vector<simmpi::Window::GetSegment>& segments);

  /// Decodes `bytes` once per request position of `sample`, charging the
  /// decode cost and recording `fetch_share + decode` latency each time.
  void decode_occurrences(const FetchPlan& plan, const PlannedSample& sample,
                          ByteSpan bytes, double fetch_share,
                          std::vector<graph::GraphSample>& out);

  /// Staging stage, single-sample path: staged-set hit or a synchronous
  /// enqueue+drain through the cold tier (the queue still serializes issue
  /// times, so depth backpressure applies even without batch overlap).
  void load_cold(std::uint64_t id, const DataRegistry::Entry& entry,
                 MutableByteSpan dst);

  /// Bookkeeping of one cache or staged-set hit: counts it in `hits` and
  /// `hit_bytes`, and charges its modeled cost (lookup service + memcpy of
  /// the nominal payload at CPU memcpy bandwidth) inside a `name` span.
  void charge_hit(MetricsRegistry::Counter& hits,
                  MetricsRegistry::Counter& hit_bytes, const char* name,
                  std::uint64_t id, std::uint64_t length);

  /// Serves one planned sample from resident `bytes` (the cache's or the
  /// staged set's lookup): charges the hit, then decodes every occurrence.
  void serve_hit(std::optional<ByteSpan> bytes, MetricsRegistry::Counter& hits,
                 MetricsRegistry::Counter& hit_bytes, const char* name,
                 const FetchPlan& plan, const PlannedSample& sample,
                 std::vector<graph::GraphSample>& out);

  /// Scheduling accounting (no-op unless locality_mode != Shuffle): counts
  /// each unique id of a request as planned-local or planned-remote under
  /// the live layout, so the bench sweep can compare what the batch
  /// scheduler placed against what the transport actually fetched.
  void account_sched(std::span<const std::uint64_t> ids);

  /// Admits verified payload bytes into the cache (no-op when disabled).
  void admit(std::uint64_t id, ByteSpan bytes);

  /// Verify/Account bookkeeping for one delivered payload (local/remote
  /// classification + byte counts).
  void account_get(int owner, std::uint64_t length);

  FetchMetrics metrics_;
  FetchContext ctx_;
  formats::DecodeCost decode_ = formats::DecodeCost::in_memory();
  SampleCache cache_;
  RmaTransport transport_;
  ResilienceStage resilience_;
  std::optional<StagingStage> staging_;  ///< tiered mode only
};

}  // namespace dds::core::fetch

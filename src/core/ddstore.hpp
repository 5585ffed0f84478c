// DDStore: the in-memory distributed data store (§3 of the paper).
//
// Formally DS = (c, w, f): a dataset striped into c chunks, replicated with
// width w (every group of w consecutive ranks holds a full replica), served
// over communication framework f — here the simmpi one-sided RMA layer.
//
// Construction is collective over the training communicator:
//   1. ranks split into N/w replica groups of w consecutive ranks;
//   2. the Data Preloader reads each member's chunk from the filesystem
//      through a format plugin (PFF/CFF SampleReader) — the only time the
//      parallel FS is touched;
//   3. the Data Registry (sample -> owner/offset/length) is built
//      collectively and wrapped, with the replica-group arithmetic, into
//      the store's Layout;
//   4. each member registers its chunk in an RMA window (MPI_Win_create).
//
// The store owns construction and lifetime; every read after that is
// delegated to the composable FetchEngine (core/fetch/engine.hpp), which
// runs the Plan / Cache / Transport / Resilience / Verify-Account stages.
// All counters live in a per-rank MetricsRegistry; DDStoreStats is a
// point-in-time view materialized by stats().
//
// Elasticity: the width is not frozen — src/elastic/ plans and executes a
// re-striping at an epoch boundary and then calls adopt_layout(), which
// swaps the Layout value, re-splits the replica-group comm, and
// re-registers the window in one collective step.  The FetchEngine
// observes the new striping through its stable Layout pointer; no engine
// rebuild, and the hot-sample cache stays warm (its keys are sample ids,
// which never change).
//
// In-process memory note: replica groups hold identical chunk content, so
// ranks with the same group-rank alias one physical buffer ("twins") at
// construction — a pure memory optimization for the single-process
// simulation; timing still charges every group its own preload and RMA
// costs.  After a reshard each rank owns its own (rebuilt) buffer.
#pragma once

#include <memory>
#include <optional>

#include "common/metrics.hpp"
#include "core/fetch/engine.hpp"
#include "core/layout.hpp"
#include "core/store_config.hpp"

namespace dds::core {

class DDStore {
 public:
  /// Collective over `comm`.  `reader` resolves sample bytes during
  /// preload; `fs_client` is this rank's filesystem client.
  DDStore(simmpi::Comm& comm, const formats::SampleReader& reader,
          fs::FsClient& fs_client, const DDStoreConfig& config = {});

  DDStore(const DDStore&) = delete;
  DDStore& operator=(const DDStore&) = delete;

  std::uint64_t num_samples() const { return layout_.num_samples(); }
  std::uint64_t nominal_sample_bytes() const { return nominal_sample_bytes_; }
  int width() const { return layout_.width(); }
  int num_replicas() const { return layout_.num_groups(); }
  int group_rank() const { return group_.rank(); }
  int replica_index() const { return layout_.group_of(comm_.rank()); }

  /// Owner (group rank) of a sample — a registry lookup.
  int owner_of(std::uint64_t id) const { return layout_.owner_of(id); }
  bool is_local(std::uint64_t id) const {
    return owner_of(id) == group_.rank();
  }

  /// Fetches the serialized bytes of one sample (cache hit, RMA get, or
  /// local copy).
  ByteBuffer get_bytes(std::uint64_t id) { return engine_->get_bytes(id); }

  /// Fetches and decodes one sample; records its loading latency.
  graph::GraphSample get(std::uint64_t id) { return engine_->get(id); }

  /// Fetches a batch (the Data Loader path of Fig. 1).  Samples come back
  /// in request order — duplicates and all — regardless of the configured
  /// BatchFetchMode; repeated ids are fetched once and decoded per
  /// occurrence.
  std::vector<graph::GraphSample> get_batch(
      std::span<const std::uint64_t> ids) {
    return engine_->get_batch(ids);
  }

  /// Collective epoch boundary over the replica group (MPI_Win_fence).
  void fence() { window_->fence(); }

  /// Materializes a point-in-time DDStoreStats view over the metrics
  /// registry.  The reference stays valid for the store's lifetime but its
  /// contents are refreshed on every call — capture by value to keep a
  /// snapshot across further store activity.
  const DDStoreStats& stats() const;

  /// Zeroes per-epoch counters in the registry.  Construction-time preload
  /// facts (preload_retries, preload_seconds) survive, and so do the cache
  /// configuration *and contents* — resetting stats at an epoch boundary
  /// must not cool a deliberately warmed cache.
  void reset_stats() { metrics_.reset(); }

  /// The per-rank metrics registry every fetch counter lives in.
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// The Cache stage's LRU (read-only; capacity 0 means disabled).
  const fetch::SampleCache& sample_cache() const { return engine_->cache(); }

  /// The Staging stage (tiered mode only; nullptr when
  /// config.tiered.hot_fraction == 1.0).  Exposes the staged-set LRU and
  /// the in-flight queue depth for tests and diagnostics.
  const fetch::StagingStage* staging() const { return engine_->staging(); }

  /// Comm-rank targets this rank's fetches touched since their last reset:
  /// the only ones with resilience state (the rest read as fresh).
  std::size_t resilience_targets() const {
    return engine_->resilience_targets();
  }

  simmpi::Comm& comm() { return comm_; }
  simmpi::Comm& group() { return group_; }
  const DDStoreConfig& config() const { return config_; }

  /// The current striping: owner-of-sample, chunk ranges, replica-group
  /// membership.  The reference stays valid across reshards (the value is
  /// swapped in place); copy it to pin one epoch's striping.
  const Layout& layout() const { return layout_; }
  const DataRegistry& registry() const { return layout_.registry(); }

  // ---- elastic hooks (src/elastic/) --------------------------------------

  /// The comm-spanning RMA window (reshard executors read source chunks
  /// through it) and this rank's resident chunk bytes.
  simmpi::Window& rma_window() { return *window_; }
  ByteSpan chunk_span() const { return ByteSpan(*chunk_); }

  /// Collective atomic layout swap, called by the elastic executor at an
  /// epoch boundary with no fetch in flight: installs this rank's new
  /// chunk (when `new_chunk` is set), assigns the Layout value, re-splits
  /// the replica-group comm, and re-registers the RMA window over the new
  /// chunks.  The FetchEngine's context pointers (layout, group, window
  /// storage) all keep their addresses, so the read path simply observes
  /// the new striping on its next fetch — no torn state is ever visible.
  void adopt_layout(const Layout& to, std::optional<ByteBuffer> new_chunk);

  /// Resilience breaker state for a comm-rank target (the elastic driver's
  /// fault-suspicion signal and its post-rebuild reset).
  bool breaker_open(int target) const { return engine_->breaker_open(target); }
  void reset_target_health(int target) {
    engine_->reset_target_health(target);
  }

  /// Continuous [0, 1] health score for a comm-rank target (0 while its
  /// breaker is open) — the elastic driver's gray-failure suspicion
  /// signal, replacing the binary breaker-only reduce.
  double health_score(int target) const {
    return engine_->health_score(target);
  }

 private:
  simmpi::Comm comm_;    ///< the full training communicator
  simmpi::Comm group_;   ///< this rank's replica group
  DDStoreConfig config_;
  std::uint64_t nominal_sample_bytes_;

  Layout layout_;  ///< current striping; swapped in place by adopt_layout
  std::shared_ptr<const ByteBuffer> chunk_;  ///< aliased across twin ranks
  std::optional<simmpi::Window> window_;  ///< over comm_: all replicas addressable

  MetricsRegistry metrics_;
  std::optional<fetch::FetchEngine> engine_;
  mutable DDStoreStats stats_view_;
};

}  // namespace dds::core

#include "core/ddstore.hpp"

#include <vector>

#include "common/checksum.hpp"

namespace dds::core {

namespace {

/// Preloaded chunk: serialized samples back-to-back plus their lengths and
/// checksums in storage order.  Shared across twin ranks (same group-rank,
/// different replica groups) — immutable after construction.
struct ChunkData {
  ByteBuffer bytes;
  std::vector<std::uint32_t> lengths;
  std::vector<std::uint64_t> checksums;
};

/// Preload reads tolerate transient FS errors (armed only while fault
/// injection is on): a real preloader would not abort a job over one EIO.
constexpr int kPreloadAttempts = 8;

ByteBuffer read_with_retry(const formats::SampleReader& reader,
                           fs::FsClient& fs_client, std::uint64_t id,
                           std::uint64_t& retries) {
  for (int attempt = 1;; ++attempt) {
    try {
      return reader.read_bytes(id, fs_client);
    } catch (const IoError&) {
      if (attempt >= kPreloadAttempts) throw;
      ++retries;
    }
  }
}

ChunkData preload_chunk(const formats::SampleReader& reader,
                        fs::FsClient& fs_client,
                        const std::vector<std::uint64_t>& ids,
                        std::uint64_t& retries) {
  ChunkData chunk;
  chunk.lengths.reserve(ids.size());
  chunk.checksums.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    const ByteBuffer bytes = read_with_retry(reader, fs_client, id, retries);
    chunk.lengths.push_back(static_cast<std::uint32_t>(bytes.size()));
    chunk.checksums.push_back(checksum64(ByteSpan(bytes)));
    chunk.bytes.insert(chunk.bytes.end(), bytes.begin(), bytes.end());
  }
  return chunk;
}

}  // namespace

DDStore::DDStore(simmpi::Comm& comm, const formats::SampleReader& reader,
                 fs::FsClient& fs_client, const DDStoreConfig& config)
    : comm_(comm),
      config_(config),
      nominal_sample_bytes_(reader.nominal_sample_bytes()) {
  const int width = config.width == 0 ? comm.size() : config.width;
  if (width < 1 || comm.size() % width != 0) {
    throw ConfigError("DDStore width " + std::to_string(width) +
                      " must divide the communicator size " +
                      std::to_string(comm.size()));
  }
  if (!(config_.tiered.hot_fraction > 0.0) ||
      config_.tiered.hot_fraction > 1.0) {
    throw ConfigError("tiered.hot_fraction must be in (0, 1], got " +
                      std::to_string(config_.tiered.hot_fraction));
  }
  if (config_.tiered.staging_depth < 1) {
    throw ConfigError("tiered.staging_depth must be >= 1, got " +
                      std::to_string(config_.tiered.staging_depth));
  }
  const std::uint64_t n = reader.num_samples();
  const ChunkAssignment assignment(n, width, config_.placement);

  // 1. Replica groups: w *consecutive* ranks per group (paper §3.1).
  const int replica = comm.rank() / width;
  group_ = comm_.split(replica, comm.rank());
  DDS_CHECK(group_.size() == width);
  // Twins: ranks holding the same chunk across groups.
  simmpi::Comm twins = comm_.split(group_.rank(), comm.rank());

  // 2. Data Preloader: the twin leader (the group-0 member) materializes
  // the chunk; other twins charge their own FS read time against a scratch
  // buffer when configured, then alias the leader's bytes.  While fault
  // injection arms transient FS errors, preload reads retry; the armed
  // window covers *only* this phase so the degraded-mode FS fallback in
  // the fetch path stays dependable.
  auto* injector = comm_.runtime().fault_injector();
  const bool fs_faults_armed =
      injector != nullptr && injector->config().fs_read_error_prob > 0.0;
  if (fs_faults_armed) fs_client.arm_faults(injector, comm.world_rank());

  std::uint64_t preload_retries = 0;
  const double preload_start = fs_client.clock().now();
  const auto ids = assignment.ids_of(group_.rank());
  const std::shared_ptr<const ChunkData> chunk_data =
      twins.share<ChunkData>(0, [&] {
        return std::make_shared<ChunkData>(
            preload_chunk(reader, fs_client, ids, preload_retries));
      });
  if (twins.rank() != 0 && config_.charge_replica_preload) {
    for (const std::uint64_t id : ids) {
      // timed, bytes discarded
      (void)read_with_retry(reader, fs_client, id, preload_retries);
    }
  }
  chunk_ = std::shared_ptr<const ByteBuffer>(chunk_data, &chunk_data->bytes);
  if (fs_faults_armed) fs_client.disarm_faults();

  // Preload facts are construction-time state, registered preserved so
  // reset_stats() at epoch boundaries cannot erase what construction cost.
  // Registered before the engine's fetch counters on every rank, keeping
  // registry layouts rank-identical (the trainer sums snapshots
  // elementwise).
  metrics_.counter("preload_retries", /*preserve_on_reset=*/true) +=
      preload_retries;
  metrics_.gauge("preload_seconds", /*preserve_on_reset=*/true)
      .set(fs_client.clock().now() - preload_start);

  // 3. Data Registry: group 0 gathers chunk lengths and checksums to comm
  // rank 0, which builds the (globally identical) index once; everyone
  // shares it.  The registry plus the replica-group arithmetic becomes the
  // store's Layout — the chunk map the read path and the elastic planner
  // both consult.
  std::vector<std::uint32_t> gathered;
  std::vector<std::uint64_t> gathered_sums;
  std::vector<std::size_t> counts;
  if (replica == 0) {
    gathered = group_.gatherv(
        std::span<const std::uint32_t>(chunk_data->lengths), 0, &counts);
    gathered_sums = group_.gatherv(
        std::span<const std::uint64_t>(chunk_data->checksums), 0);
  }
  const std::shared_ptr<const DataRegistry> registry =
      comm_.share<DataRegistry>(0, [&] {
        return DataRegistry::build(
            assignment, std::span<const std::uint32_t>(gathered),
            std::span<const std::size_t>(counts),
            std::span<const std::uint64_t>(gathered_sums));
      });
  layout_ = Layout(comm_.size(), width, config_.placement, registry,
                   config_.tiered.hot_fraction);

  // 4. RMA registration (MPI_Win_create): chunks are read-only, so exposing
  // the shared buffer mutably is safe (only shared-lock gets touch it).
  // The window spans the *full* communicator — not just the replica group —
  // so a fetch can address the same chunk in a sibling group when its
  // primary target misbehaves (cross-group failover).  The chunk shared_ptr
  // rides along as the window's keepalive so a rank tearing its store down
  // early cannot free memory peers still read.
  auto* mutable_bytes = const_cast<std::byte*>(chunk_->data());
  window_.emplace(comm_, MutableByteSpan(mutable_bytes, chunk_->size()),
                  chunk_);

  // 5. The read path: every get/get_batch from here on runs through the
  // staged FetchEngine, which registers its counters in a fixed order.
  engine_.emplace(comm_, group_, *window_, layout_, config_, reader,
                  fs_client, nominal_sample_bytes_, metrics_);

  // 6. The reshard/rebuild counters, registered up front so a later
  // reshard never registers metrics mid-epoch (which would break the
  // trainer's delta accounting).
  metrics_.counter("reshards");
  metrics_.counter("reshard_pull_bytes");
  metrics_.counter("reshard_keep_bytes");
  metrics_.counter("rank_rebuilds");
  metrics_.counter("rebuild_bytes");
  metrics_.counter("reshard_cold_stage_bytes");
}

void DDStore::adopt_layout(const Layout& to, std::optional<ByteBuffer> new_chunk) {
  DDS_CHECK_MSG(to.valid() && to.nranks() == comm_.size(),
                "layout disagrees with the communicator");
  DDS_CHECK_MSG(to.num_samples() == layout_.num_samples(),
                "layout describes a different dataset");
  // Epoch-boundary barrier: no rank may still be reading the old window.
  comm_.barrier();
  if (new_chunk.has_value()) {
    // Post-reshard this rank owns its own buffer (twin aliasing was a
    // construction-time memory optimization only).
    chunk_ = std::make_shared<const ByteBuffer>(std::move(*new_chunk));
  }
  DDS_CHECK_MSG(chunk_->size() == to.chunk_bytes_of_rank(comm_.rank()),
                "resident chunk disagrees with the adopted layout");
  // The atomic swap: one value assignment while the engine's Layout
  // pointer keeps its address.  Collective from here — every rank runs the
  // identical sequence, so the split and the window registration stay in
  // lockstep.
  layout_ = to;
  group_ = comm_.split(layout_.group_of(comm_.rank()), comm_.rank());
  DDS_CHECK(group_.size() == layout_.width());
  auto* mutable_bytes = const_cast<std::byte*>(chunk_->data());
  window_.emplace(comm_, MutableByteSpan(mutable_bytes, chunk_->size()),
                  chunk_);
}

const DDStoreStats& DDStore::stats() const {
  DDStoreStats& s = stats_view_;
  s.local_gets = metrics_.counter_value("local_gets");
  s.remote_gets = metrics_.counter_value("remote_gets");
  s.bytes_fetched = metrics_.counter_value("bytes_fetched");
  s.nominal_bytes_fetched = metrics_.counter_value("nominal_bytes_fetched");
  s.retries = metrics_.counter_value("retries");
  s.failovers = metrics_.counter_value("failovers");
  s.checksum_failures = metrics_.counter_value("checksum_failures");
  s.degraded_reads = metrics_.counter_value("degraded_reads");
  s.breaker_trips = metrics_.counter_value("breaker_trips");
  s.lock_epochs = metrics_.counter_value("lock_epochs");
  s.rma_transfers = metrics_.counter_value("rma_transfers");
  s.coalesced_transfers = metrics_.counter_value("coalesced_transfers");
  s.coalesced_segments = metrics_.counter_value("coalesced_segments");
  s.coalesced_bytes = metrics_.counter_value("coalesced_bytes");
  s.lock_epochs_saved = metrics_.counter_value("lock_epochs_saved");
  s.batch_dup_hits = metrics_.counter_value("batch_dup_hits");
  s.coalesced_fallbacks = metrics_.counter_value("coalesced_fallbacks");
  s.cache_hits = metrics_.counter_value("cache_hits");
  s.cache_misses = metrics_.counter_value("cache_misses");
  s.cache_evictions = metrics_.counter_value("cache_evictions");
  s.cache_hit_bytes = metrics_.counter_value("cache_hit_bytes");
  s.hedged_fetches = metrics_.counter_value("hedged_fetches");
  s.hedge_wins = metrics_.counter_value("hedge_wins");
  s.hedge_mismatches = metrics_.counter_value("hedge_mismatches");
  s.hedge_cancelled_bytes = metrics_.counter_value("hedge_cancelled_bytes");
  s.quarantine_steers = metrics_.counter_value("quarantine_steers");
  s.cold_misses = metrics_.counter_value("cold_misses");
  s.staged_hits = metrics_.counter_value("staged_hits");
  s.staged_hit_bytes = metrics_.counter_value("staged_hit_bytes");
  s.staged_bytes = metrics_.counter_value("staged_bytes");
  s.staged_evictions = metrics_.counter_value("staged_evictions");
  s.stage_backpressure_delays =
      metrics_.counter_value("stage_backpressure_delays");
  s.sched_local_planned = metrics_.counter_value("sched_local_planned");
  s.sched_remote_planned = metrics_.counter_value("sched_remote_planned");
  s.sched_remote_bytes = metrics_.counter_value("sched_remote_bytes");
  s.reshards = metrics_.counter_value("reshards");
  s.reshard_pull_bytes = metrics_.counter_value("reshard_pull_bytes");
  s.reshard_keep_bytes = metrics_.counter_value("reshard_keep_bytes");
  s.reshard_cold_stage_bytes =
      metrics_.counter_value("reshard_cold_stage_bytes");
  s.rank_rebuilds = metrics_.counter_value("rank_rebuilds");
  s.rebuild_bytes = metrics_.counter_value("rebuild_bytes");
  s.preload_retries = metrics_.counter_value("preload_retries");
  s.preload_seconds = metrics_.gauge_value("preload_seconds");
  const LatencyRecorder* lat = metrics_.find_latency("sample_load_s");
  s.latency = lat != nullptr ? *lat : LatencyRecorder{};
  return s;
}

}  // namespace dds::core

#include "core/fetch/engine.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "common/tracing/tracer.hpp"

namespace dds::core::fetch {

FetchEngine::FetchEngine(simmpi::Comm& comm, simmpi::Comm& group,
                         simmpi::Window& window, const Layout& layout,
                         const DDStoreConfig& config,
                         const formats::SampleReader& reader,
                         fs::FsClient& fs_client,
                         std::uint64_t nominal_sample_bytes,
                         MetricsRegistry& metrics)
    : metrics_(metrics),
      ctx_{&comm, &group, &window, &layout, &config, &reader, &fs_client,
           &metrics_, nominal_sample_bytes},
      cache_(config.cache_capacity_bytes),
      transport_(ctx_),
      resilience_(ctx_, transport_) {
  if (config.tiered.enabled()) staging_.emplace(ctx_);
}

void FetchEngine::account_sched(std::span<const std::uint64_t> ids) {
  if (ctx_.config->locality_mode == LocalityMode::Shuffle) return;
  // Classify each unique id the way the scheduler's cost model does: a
  // zero-cost placement iff this rank's chunk owns the sample *and* the
  // sample is hot (cold-resident samples cost a staging read anywhere).
  std::vector<std::uint64_t> unique(ids.begin(), ids.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  const Layout& layout = *ctx_.layout;
  const int me = ctx_.group->rank();
  for (const std::uint64_t id : unique) {
    if (layout.owner_of(id) == me && layout.is_hot(id)) {
      ++metrics_.sched_local_planned;
    } else {
      ++metrics_.sched_remote_planned;
      metrics_.sched_remote_bytes += ctx_.nominal_sample_bytes;
    }
  }
}

void FetchEngine::charge_hit(MetricsRegistry::Counter& hits,
                             MetricsRegistry::Counter& hit_bytes,
                             const char* name, std::uint64_t id,
                             std::uint64_t length) {
  ++hits;
  hit_bytes += length;
  tracing::Span span(ctx_.tracer(), ctx_.clock(), tracing::Category::Cache,
                     name);
  span.args().sample_id = static_cast<std::int64_t>(id);
  span.args().bytes = static_cast<std::int64_t>(length);
  // A hit is modeled as constant lookup service plus one memcpy of the
  // nominal payload at CPU memory bandwidth — strictly cheaper than even a
  // local RMA get, which pays rma_local_overhead_s per transfer.
  const auto& cpu = ctx_.comm->runtime().machine().cpu;
  ctx_.clock().advance(cpu.cache_hit_service_s +
                       static_cast<double>(ctx_.nominal_sample_bytes) /
                           cpu.memcpy_bandwidth_Bps);
}

void FetchEngine::serve_hit(std::optional<ByteSpan> bytes,
                            MetricsRegistry::Counter& hits,
                            MetricsRegistry::Counter& hit_bytes,
                            const char* name, const FetchPlan& plan,
                            const PlannedSample& sample,
                            std::vector<graph::GraphSample>& out) {
  DDS_CHECK(bytes.has_value());
  const double t0 = ctx_.clock().now();
  charge_hit(hits, hit_bytes, name, sample.id, sample.length);
  decode_occurrences(plan, sample, *bytes, ctx_.clock().now() - t0, out);
}

void FetchEngine::admit(std::uint64_t id, ByteSpan bytes) {
  if (!cache_.enabled()) return;
  metrics_.cache_evictions += cache_.insert(id, bytes);
}

void FetchEngine::account_get(int owner, std::uint64_t length) {
  if (owner == ctx_.group->rank()) {
    ++metrics_.local_gets;
  } else {
    ++metrics_.remote_gets;
  }
  metrics_.bytes_fetched += length;
  metrics_.nominal_bytes_fetched += ctx_.nominal_sample_bytes;
}

ByteBuffer FetchEngine::get_bytes(std::uint64_t id) {
  const auto& entry = ctx_.registry().lookup(id);
  ByteBuffer out(entry.length);
  load_payload(id, entry, MutableByteSpan(out));
  return out;
}

void FetchEngine::load_payload(std::uint64_t id,
                               const DataRegistry::Entry& entry,
                               MutableByteSpan dst) {
  DDS_CHECK(dst.size() == entry.length);
  // Cache stage first, for every id: a hit never takes a lock epoch,
  // consumes no retry budget, and touches no target's breaker (see
  // DESIGN.md invariant).  After an elastic reshard narrows the hot prefix,
  // a previously-hot sample can be both cached and cold — the cheaper
  // cache hit wins until eviction retires it, as on the planned path.
  if (const auto hit = cache_.enabled() ? cache_.lookup(id) : std::nullopt) {
    charge_hit(metrics_.cache_hits, metrics_.cache_hit_bytes, "cache_hit", id,
               entry.length);
    std::memcpy(dst.data(), hit->data(), dst.size());
    return;
  }
  // Staging stage owns every cold miss: cold ids live in the staged set,
  // never the sample cache, so the hot working set and the staged set
  // never compete for the same budget.
  if (staging_ && staging_->is_cold(id)) {
    load_cold(id, entry, dst);
    return;
  }
  if (cache_.enabled()) {
    ++metrics_.cache_misses;
    if (tracing::EventTracer* tr = ctx_.tracer()) {
      tracing::EventArgs args;
      args.sample_id = static_cast<std::int64_t>(id);
      tr->instant(tracing::Category::Cache, "cache_miss", ctx_.clock().now(),
                  args);
    }
  }
  fetch_into(id, dst);
  admit(id, dst);
}

void FetchEngine::fetch_into(std::uint64_t id, MutableByteSpan dst) {
  const auto& entry = ctx_.registry().lookup(id);
  DDS_CHECK(dst.size() == entry.length);
  // One-sided RMA (the paper's design): lock, get, unlock, hardened with
  // retry/failover/checksum verification.
  resilience_.fetch(id, entry, dst);
  account_get(static_cast<int>(entry.owner), entry.length);
}

graph::GraphSample FetchEngine::get(std::uint64_t id) {
  account_sched(std::span<const std::uint64_t>(&id, 1));
  auto& clock = ctx_.clock();
  const double t0 = clock.now();
  const ByteBuffer bytes = get_bytes(id);
  decode_.charge(clock, ctx_.nominal_sample_bytes);
  auto sample = graph::GraphSample::deserialize(bytes);
  metrics_.latency.add(clock.now() - t0);
  return sample;
}

std::vector<graph::GraphSample> FetchEngine::get_batch(
    std::span<const std::uint64_t> ids) {
  if (ids.empty()) return {};
  account_sched(ids);
  switch (ctx_.config->batch_fetch) {
    case BatchFetchMode::PerSample:
      return get_batch_per_sample(ids);
    case BatchFetchMode::Coalesced:
      return get_batch_coalesced(ids);
  }
  throw InternalError("unknown BatchFetchMode");
}

std::vector<graph::GraphSample> FetchEngine::get_batch_per_sample(
    std::span<const std::uint64_t> ids) {
  // Fetch each distinct id once (first occurrence pays the wire — or the
  // cache), decode per occurrence; fetch order is request order of first
  // occurrences.  Every payload lands in one uninitialized arena, a slot
  // per distinct id.  Hits are copied in too: a later admission in this
  // batch may evict them before a repeat of their id is decoded.
  struct Slot {
    std::uint64_t id;
    std::uint64_t offset;  ///< of the id's payload in the arena
    std::uint32_t pos;     ///< request position
    bool first;            ///< the id's first occurrence in the request
  };
  std::vector<Slot> slots(ids.size());
  for (std::uint32_t i = 0; i < slots.size(); ++i) {
    slots[i] = Slot{ids[i], 0, i, false};
  }
  // Group each id's occurrences, first one first, to give every distinct
  // id one arena slot; then restore request order.
  const auto by_id = [](const Slot& a, const Slot& b) {
    return a.id != b.id ? a.id < b.id : a.pos < b.pos;
  };
  const auto by_pos = [](const Slot& a, const Slot& b) {
    return a.pos < b.pos;
  };
  std::sort(slots.begin(), slots.end(), by_id);
  std::uint64_t arena_bytes = 0;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    Slot& s = slots[k];
    s.first = k == 0 || s.id != slots[k - 1].id;
    if (s.first) {
      s.offset = arena_bytes;
      arena_bytes += ctx_.registry().lookup(s.id).length;
    } else {
      s.offset = slots[k - 1].offset;
    }
  }
  std::sort(slots.begin(), slots.end(), by_pos);
  const auto arena = std::make_unique_for_overwrite<std::byte[]>(arena_bytes);

  std::vector<graph::GraphSample> out(ids.size());
  auto& clock = ctx_.clock();
  for (const Slot& s : slots) {
    const double t0 = clock.now();
    const auto& entry = ctx_.registry().lookup(s.id);
    const MutableByteSpan bytes(arena.get() + s.offset, entry.length);
    if (s.first) {
      load_payload(s.id, entry, bytes);
    } else {
      ++metrics_.batch_dup_hits;
    }
    decode_.charge(clock, ctx_.nominal_sample_bytes);
    out[s.pos] = graph::GraphSample::deserialize(bytes);
    metrics_.latency.add(clock.now() - t0);
  }
  return out;
}

void FetchEngine::load_cold(std::uint64_t id, const DataRegistry::Entry& entry,
                            MutableByteSpan dst) {
  if (const auto hit = staging_->staged_lookup(id)) {
    charge_hit(metrics_.staged_hits, metrics_.staged_hit_bytes, "staged_hit",
               id, entry.length);
    std::memcpy(dst.data(), hit->data(), dst.size());
    return;
  }
  // Synchronous miss: enqueue and immediately drain.  The queue still
  // serializes the issue time against the previous staging_depth reads, so
  // single-sample callers see the same device backpressure batches do.
  staging_->enqueue(id, entry);
  const ByteSpan bytes = staging_->drain(id);
  std::memcpy(dst.data(), bytes.data(), dst.size());
}

std::vector<graph::GraphSample> FetchEngine::get_batch_coalesced(
    std::span<const std::uint64_t> ids) {
  tracing::Span batch_span(ctx_.tracer(), ctx_.clock(),
                           tracing::Category::Fetch, "batch_coalesced");
  // Plan stage, with the Cache stage (and, when tiered, the hot/cold
  // partition) as its residency predicate: ids already resident — or cold,
  // hence owned by the Staging stage — never enter a transfer plan.
  // `contains`/`is_cold` do not promote — the authoritative lookups that
  // serve the hits do.
  const bool tiered = staging_.has_value();
  std::optional<tracing::Span> plan_span;
  plan_span.emplace(ctx_.tracer(), ctx_.clock(), tracing::Category::Fetch,
                    "plan");
  std::function<bool(std::uint64_t)> resident;
  if (cache_.enabled() || tiered) {
    resident = [this, tiered](std::uint64_t id) {
      return cache_.contains(id) || (tiered && staging_->is_cold(id));
    };
  }
  const FetchPlan plan = plan_batch_fetch(ctx_.registry(), ids, resident);
  plan_span->args().bytes = static_cast<std::int64_t>(plan.total_bytes());
  plan_span.reset();
  std::vector<graph::GraphSample> out(ids.size());
  auto& clock = ctx_.clock();
  metrics_.batch_dup_hits += plan.duplicate_hits;
  metrics_.lock_epochs_saved +=
      plan.unique_samples - static_cast<std::uint64_t>(plan.targets.size());
  if (cache_.enabled()) {
    metrics_.cache_misses += plan.unique_samples;
  }

  // Partition the diverted samples by index, ascending id within each
  // part: [cached | staged | cold misses].  Cache first: after an elastic
  // reshard narrows the hot prefix, a previously-hot sample can be both
  // cached and cold — the cheaper cache hit wins until eviction retires it.
  const std::vector<PlannedSample>& diverted = plan.diverted;
  std::vector<std::uint32_t> parts;
  parts.reserve(diverted.size());
  for (std::uint32_t i = 0; i < diverted.size(); ++i) {
    if (cache_.contains(diverted[i].id)) parts.push_back(i);
  }
  const std::size_t staged_begin = parts.size();
  if (tiered) {
    for (std::uint32_t i = 0; i < diverted.size(); ++i) {
      const std::uint64_t id = diverted[i].id;
      if (!cache_.contains(id) && staging_->staged_contains(id)) {
        parts.push_back(i);
      }
    }
  }
  const std::size_t cold_begin = parts.size();
  if (tiered) {
    for (std::uint32_t i = 0; i < diverted.size(); ++i) {
      const std::uint64_t id = diverted[i].id;
      if (!cache_.contains(id) && !staging_->staged_contains(id)) {
        parts.push_back(i);
      }
    }
  }
  const auto cached = std::span(parts).first(staged_begin);
  const auto staged =
      std::span(parts).subspan(staged_begin, cold_begin - staged_begin);
  const auto cold_misses = std::span(parts).subspan(cold_begin);

  // Staging stage, issue side: enqueue every cold miss *now*, before any
  // lock epoch opens — the modeled storage reads then overlap the hot RMA
  // transfers below (the queue never advances the clock at enqueue).
  for (const std::uint32_t i : cold_misses) {
    staging_->enqueue(diverted[i].id, ctx_.registry().lookup(diverted[i].id));
  }

  // Cache stage: serve every resident sample before any lock epoch opens.
  for (const std::uint32_t i : cached) {
    serve_hit(cache_.lookup(diverted[i].id), metrics_.cache_hits,
              metrics_.cache_hit_bytes, "cache_hit", plan, diverted[i], out);
  }
  for (const std::uint32_t i : staged) {
    serve_hit(staging_->staged_lookup(diverted[i].id), metrics_.staged_hits,
              metrics_.staged_hit_bytes, "staged_hit", plan, diverted[i], out);
  }

  // Every target's transfer lands back-to-back in one uninitialized arena;
  // samples are verified and decoded out of it by planned offset.
  const auto arena =
      std::make_unique_for_overwrite<std::byte[]>(plan.total_bytes());
  std::vector<simmpi::Window::GetSegment> segments;
  segments.reserve(plan.total_ranges());
  std::byte* landing_begin = arena.get();
  for (const TargetPlan& tp : plan.targets) {
    const MutableByteSpan landing(landing_begin, tp.bytes);
    landing_begin += tp.bytes;
    const double t0 = clock.now();
    const bool delivered = run_coalesced_transfer(plan, tp, landing, segments);
    const double fetch_share =
        (clock.now() - t0) / static_cast<double>(tp.num_samples);
    bool fell_back = false;
    for (const PlannedSample& s : plan.samples_of(tp)) {
      const auto& entry = ctx_.registry().lookup(s.id);
      const MutableByteSpan view = landing.subspan(s.staging_offset, s.length);
      if (delivered && resilience_.payload_intact(entry, view)) {
        account_get(tp.owner, entry.length);
        admit(s.id, view);
        decode_occurrences(plan, s, view, fetch_share, out);
      } else {
        // Degrade to the per-sample resilient path for this id only: the
        // transfer lost the whole target (transport) or just this sample
        // (checksum); either way retries/failover/FS-fallback still apply.
        // The refetch overwrites the sample's slot in the arena.
        fell_back = true;
        const double tf = clock.now();
        fetch_into(s.id, view);
        admit(s.id, view);
        decode_occurrences(plan, s, view, clock.now() - tf, out);
      }
    }
    if (fell_back) ++metrics_.coalesced_fallbacks;
  }

  // Staging stage, drain side: collect the cold reads issued before the
  // hot transfers, in enqueue order.  Any read that completed while the
  // RMA traffic ran drains for free; the stage_wait recorder captures what
  // didn't hide.
  for (const std::uint32_t i : cold_misses) {
    const double t0 = clock.now();
    const ByteSpan bytes = staging_->drain(diverted[i].id);
    decode_occurrences(plan, diverted[i], bytes, clock.now() - t0, out);
  }
  return out;
}

bool FetchEngine::run_coalesced_transfer(
    const FetchPlan& plan, const TargetPlan& tp, MutableByteSpan landing,
    std::vector<simmpi::Window::GetSegment>& segments) {
  const int target = ctx_.primary_target(tp.owner);
  segments.clear();
  std::size_t pos = 0;
  for (const PlannedRange& r : plan.ranges_of(tp)) {
    const auto length = static_cast<std::size_t>(r.length);
    segments.push_back({static_cast<std::size_t>(r.offset),
                        landing.subspan(pos, length)});
    pos += length;
  }
  DDS_CHECK(pos == landing.size());

  transport_.lock(target);
  ++metrics_.coalesced_transfers;
  metrics_.coalesced_segments += segments.size();
  const RmaTransport::Transfer t =
      transport_.getv(segments, target,
                      ctx_.nominal_sample_bytes * tp.num_samples,
                      ctx_.clock().now());
  ctx_.clock().advance_to(t.done);
  transport_.unlock(target);
  if (t.delivered) metrics_.coalesced_bytes += landing.size();
  return t.delivered;
}

void FetchEngine::decode_occurrences(const FetchPlan& plan,
                                     const PlannedSample& sample,
                                     ByteSpan bytes, double fetch_share,
                                     std::vector<graph::GraphSample>& out) {
  auto& clock = ctx_.clock();
  for (const std::uint32_t pos : plan.positions_of(sample)) {
    const double t0 = clock.now();
    decode_.charge(clock, ctx_.nominal_sample_bytes);
    out[pos] = graph::GraphSample::deserialize(bytes);
    metrics_.latency.add(fetch_share + (clock.now() - t0));
  }
}

}  // namespace dds::core::fetch

#include "core/fetch/staging.hpp"

#include <algorithm>

#include "common/tracing/tracer.hpp"

namespace dds::core::fetch {

namespace {

/// Auto capacity for the staged set: the rank's cold complement — hot
/// prefix plus staged set never exceed one full chunk of actual bytes.
std::uint64_t auto_staged_capacity(const FetchContext& ctx) {
  const Layout& layout = *ctx.layout;
  const int owner = layout.group_rank_of(ctx.comm->rank());
  const std::uint64_t chunk = layout.chunk_bytes(owner);
  return chunk - layout.hot_bytes(owner);
}

}  // namespace

StagingStage::StagingStage(const FetchContext& ctx)
    : ctx_(&ctx),
      recent_dones_(
          static_cast<std::size_t>(ctx.config->tiered.staging_depth)),
      staged_(ctx.config->tiered.staged_set_bytes != 0
                  ? ctx.config->tiered.staged_set_bytes
                  : auto_staged_capacity(ctx)) {}

void StagingStage::enqueue(std::uint64_t id,
                           const DataRegistry::Entry& entry) {
  FetchMetrics& m = *ctx_->metrics;
  auto& clock = ctx_->clock();

  // Data plane: cold bytes come out of the owner's exposed region — the
  // same memory every other fetch path reads, so tiering can never change
  // a delivered byte.  They are copied when the read drains.
  const auto* region = static_cast<const std::byte*>(
      ctx_->window->region_data(
          ctx_->primary_target(static_cast<int>(entry.owner))));
  InFlight f;
  f.id = id;
  f.bytes = ByteSpan(region + entry.offset, entry.length);

  // Timing plane: the read issues when a queue slot frees — the completion
  // of the read staging_depth places ahead of this one — and its own
  // completion is modeled now, with no clock movement (the transport's
  // discipline).
  double ready = clock.now();
  const std::size_t depth = recent_dones_.size();
  const std::size_t slot = enqueued_ % depth;
  if (enqueued_ >= depth) {
    const double slot_free = recent_dones_[slot];
    if (slot_free > ready) {
      ready = slot_free;
      ++m.stage_backpressure_delays;
    }
  }
  f.done = ctx_->fs_client->fs().stage_read_at(ready,
                                               ctx_->nominal_sample_bytes);
  ++m.cold_misses;
  if (tracing::EventTracer* tr = ctx_->tracer()) {
    tracing::EventArgs args;
    args.sample_id = static_cast<std::int64_t>(id);
    args.bytes = static_cast<std::int64_t>(entry.length);
    tr->instant(tracing::Category::Fetch, "stage_enqueue", clock.now(), args);
  }

  recent_dones_[slot] = f.done;
  ++enqueued_;
  queue_.push_back(f);
}

ByteSpan StagingStage::drain(std::uint64_t id) {
  DDS_CHECK_MSG(head_ < queue_.size() && queue_[head_].id == id,
                "drain out of enqueue order");
  const InFlight f = queue_[head_];
  if (++head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  }
  FetchMetrics& m = *ctx_->metrics;
  auto& clock = ctx_->clock();
  const double wait = std::max(0.0, f.done - clock.now());
  clock.advance_to(f.done);
  m.stage_wait.add(wait);
  m.staged_bytes += f.bytes.size();
  m.staged_evictions += staged_.insert(id, f.bytes);
  return f.bytes;
}

}  // namespace dds::core::fetch

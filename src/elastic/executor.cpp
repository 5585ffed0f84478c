#include "elastic/executor.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include "common/tracing/tracer.hpp"

namespace dds::elastic {

namespace {

/// Moves this rank's bytes into a freshly allocated new chunk: keeps as
/// local memcpy (charged at nominal scale against the memcpy bandwidth),
/// pulls as one shared-lock vectored get per source through the *old* RMA
/// window, charged at nominal sample bytes like every fetch.
///
/// Tiered layouts add two things.  Data plane: the simulation keeps every
/// chunk fully resident (the window spans it; "cold" is a timing
/// construct), so the whole new chunk is prefilled untimed from the old
/// layout's own-group holders before the timed work runs — the plan's
/// keeps/pulls/cold_stages cover only the hot set.  Timing plane: the
/// cold_stages entries are charged through the analytic staging-queue
/// model (cold_stage_seconds), the exact formula estimate_reshard_seconds
/// prices them with.
ByteBuffer execute_rank_plan(core::DDStore& store, const RankReshardPlan& rp,
                             const core::Layout& from, const core::Layout& to) {
  simmpi::Comm& comm = store.comm();
  model::VirtualClock& clock = comm.clock();
  tracing::EventTracer* tracer = comm.tracer();
  const std::uint64_t nominal = store.nominal_sample_bytes();
  const ByteSpan old_chunk = store.chunk_span();
  simmpi::Window& window = store.rma_window();

  ByteBuffer new_chunk(rp.new_chunk_bytes);

  if (from.tiered() || to.tiered()) {
    const int r = comm.rank();
    const int owner_new = to.group_rank_of(r);
    const core::DataRegistry& old_reg = from.registry();
    const core::DataRegistry& new_reg = to.registry();
    for (const std::uint64_t id : to.assignment().ids_of(owner_new)) {
      const core::DataRegistry::Entry& e_old = old_reg.lookup(id);
      const core::DataRegistry::Entry& e_new = new_reg.lookup(id);
      const int holder =
          from.holder(from.group_of(r), static_cast<int>(e_old.owner));
      const auto* region =
          static_cast<const std::byte*>(window.region_data(holder));
      std::memcpy(new_chunk.data() + e_new.offset, region + e_old.offset,
                  e_old.length);
    }
  }

  if (!rp.keeps.empty()) {
    tracing::Span span(tracer, clock, tracing::Category::Elastic, "keep");
    span.args().bytes = static_cast<std::int64_t>(rp.keep_bytes);
    for (const CopySegment& seg : rp.keeps) {
      std::memcpy(new_chunk.data() + seg.dst_offset,
                  old_chunk.data() + seg.src_offset, seg.length);
    }
    clock.advance(static_cast<double>(rp.keep_samples * nominal) /
                  comm.runtime().machine().cpu.memcpy_bandwidth_Bps);
  }

  for (const PullPlan& pull : rp.pulls) {
    tracing::Span span(tracer, clock, tracing::Category::Elastic, "pull");
    span.args().target = comm.world_rank_of(pull.source);
    span.args().bytes = static_cast<std::int64_t>(pull.bytes);
    std::vector<simmpi::Window::GetSegment> segments;
    segments.reserve(pull.segments.size());
    for (const CopySegment& seg : pull.segments) {
      segments.push_back(simmpi::Window::GetSegment{
          static_cast<std::size_t>(seg.src_offset),
          MutableByteSpan(new_chunk.data() + seg.dst_offset,
                          static_cast<std::size_t>(seg.length))});
    }
    window.lock(pull.source);
    window.getv(segments, pull.source,
                /*charge_bytes=*/pull.samples * nominal);
    window.unlock(pull.source);
  }

  if (rp.cold_stage_samples > 0) {
    tracing::Span span(tracer, clock, tracing::Category::Elastic,
                       "cold_stage");
    span.args().bytes = static_cast<std::int64_t>(rp.cold_stage_bytes);
    clock.advance(cold_stage_seconds(
        rp.cold_stage_samples, nominal, comm.runtime().machine().fs,
        store.config().tiered.staging_depth));
  }
  return new_chunk;
}

}  // namespace

ReshardPlan reshard(core::DDStore& store, int new_width,
                    std::span<const int> excluded_sources) {
  if (new_width == store.width()) {
    ReshardPlan noop;
    noop.from_width = noop.to_width = new_width;
    return noop;
  }
  // Pin the current layout: adopt_layout swaps the store's value in place.
  const core::Layout from = store.layout();
  const core::Layout to = from.with_width(new_width);
  ReshardPlan plan = plan_reshard(from, to, excluded_sources);
  const RankReshardPlan& rp =
      plan.ranks[static_cast<std::size_t>(store.comm().rank())];

  ByteBuffer new_chunk;
  {
    tracing::Span span(store.comm().tracer(), store.comm().clock(),
                       tracing::Category::Elastic, "reshard");
    span.args().bytes = static_cast<std::int64_t>(rp.pull_bytes);
    new_chunk = execute_rank_plan(store, rp, from, to);
  }
  MetricsRegistry& m = store.metrics();
  m.counter("reshards") += 1;
  m.counter("reshard_pull_bytes") += rp.pull_bytes;
  m.counter("reshard_keep_bytes") += rp.keep_bytes;
  m.counter("reshard_cold_stage_bytes") += rp.cold_stage_bytes;

  store.adopt_layout(to, std::move(new_chunk));
  return plan;
}

ReshardPlan rebuild_rank(core::DDStore& store, int dead_rank) {
  // Pinned copy: the layout value survives the adopt_layout swap below.
  const core::Layout layout = store.layout();
  ReshardPlan plan = plan_rebuild(layout, dead_rank);

  std::optional<ByteBuffer> new_chunk;
  if (store.comm().rank() == dead_rank) {
    const RankReshardPlan& rp =
        plan.ranks[static_cast<std::size_t>(dead_rank)];
    tracing::Span span(store.comm().tracer(), store.comm().clock(),
                       tracing::Category::Elastic, "rebuild");
    span.args().bytes = static_cast<std::int64_t>(rp.pull_bytes);
    new_chunk = execute_rank_plan(store, rp, layout, layout);
    MetricsRegistry& m = store.metrics();
    m.counter("rank_rebuilds") += 1;
    m.counter("rebuild_bytes") += rp.pull_bytes;
    m.counter("reshard_cold_stage_bytes") += rp.cold_stage_bytes;
  }
  // Same layout back in: the swap's real work here is re-registering the
  // window over the rebuilt chunk so peers fetch from live memory again.
  store.adopt_layout(layout, std::move(new_chunk));
  return plan;
}

}  // namespace dds::elastic

#include "core/fetch/resilience.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/checksum.hpp"
#include "common/tracing/tracer.hpp"

namespace dds::core::fetch {

namespace {

// Retry policy.  Retries and failovers only engage on an undelivered
// transfer or a checksum mismatch, which only occur when fault injection
// is armed — with faults off none of this adds work to the hot path.

/// Attempts per target per fetch.
constexpr int kMaxAttempts = 3;
/// First retry backoff, charged to the origin's virtual clock; it grows
/// geometrically per attempt, plus a uniform extra fraction that
/// decorrelates retries.
constexpr double kBackoffBaseS = 250e-6;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.5;

/// Seed of the stage-private backoff jitter RNG (see the member comment);
/// streamed by world rank so every rank's retry schedule is independent
/// and replayable.
constexpr std::uint64_t kBackoffSeed = 0xddb0ff5eedULL;

/// Every Nth demotion of a quarantined primary probes it instead (see
/// Target::steer_count).  Probes are hedged under the capped
/// deadline, so a still-degraded rank costs a bounded detour while a
/// recovered one re-earns its score within a few probes.
constexpr std::uint32_t kQuarantineProbeEvery = 8;

}  // namespace

ResilienceStage::ResilienceStage(const FetchContext& ctx,
                                 RmaTransport& transport)
    : ctx_(&ctx),
      transport_(&transport),
      backoff_rng_(Rng(kBackoffSeed).stream(
          static_cast<std::uint64_t>(ctx.comm->world_rank()))) {}

std::size_t ResilienceStage::slot_of(int target) const {
  const std::size_t mask = table_.size() - 1;
  // Fibonacci hashing, as in SampleCache::home_of.
  std::size_t i = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(target) * 0x9E37'79B9'7F4A'7C15ull) >>
      shift_);
  while (table_[i].target >= 0 && table_[i].target != target) {
    i = (i + 1) & mask;
  }
  return i;
}

void ResilienceStage::make_room(std::size_t inserts) {
  while ((records_ + inserts) * 4 > table_.size() * 3) {
    rebuild(std::max<std::size_t>(16, 2 * table_.size()), -1);
  }
}

void ResilienceStage::rebuild(std::size_t slots, int drop) {
  std::vector<Target> old(slots);
  old.swap(table_);
  shift_ = 64 - std::countr_zero(slots);
  records_ = 0;
  for (const Target& t : old) {
    if (t.target < 0 || t.target == drop) continue;
    table_[slot_of(t.target)] = t;
    ++records_;
  }
}

ResilienceStage::Target& ResilienceStage::touch(int target) {
  Target& t = table_[slot_of(target)];
  if (t.target == target) return t;
  DDS_CHECK(4 * (records_ + 1) <= 3 * table_.size());
  t.target = target;
  ++records_;
  // Every write follows the candidate_order that refreshed this target, so
  // a new record starts at the epoch refresh_revival would have stored.
  if (const auto* inj = ctx_->comm->runtime().fault_injector()) {
    t.seen_revive_epoch =
        inj->revive_epoch(ctx_->comm->world_rank_of(target));
  }
  return t;
}

const ResilienceStage::Target* ResilienceStage::find(int target) const {
  if (table_.empty()) return nullptr;
  const Target& t = table_[slot_of(target)];
  return t.target == target ? &t : nullptr;
}

bool ResilienceStage::payload_intact(const DataRegistry::Entry& entry,
                                     ByteSpan dst) {
  if (entry.checksum == 0 || checksum64(dst) == entry.checksum) return true;
  ++ctx_->metrics->checksum_failures;
  if (tracing::EventTracer* tr = ctx_->tracer()) {
    tracing::EventArgs args;
    args.bytes = static_cast<std::int64_t>(dst.size());
    tr->instant(tracing::Category::Verify, "checksum_fail",
                ctx_->clock().now(), args);
  }
  return false;
}

bool ResilienceStage::breaker_open(int target) const {
  const Target* t = find(target);
  if (t == nullptr || !t->breaker.open()) return false;
  // A rank revived since the breaker last saw it reads as closed — the
  // stale record is dropped on the next fetch's refresh_revival.
  const auto* inj = ctx_->comm->runtime().fault_injector();
  return inj == nullptr ||
         inj->revive_epoch(ctx_->comm->world_rank_of(target)) ==
             t->seen_revive_epoch;
}

void ResilienceStage::refresh_revival(int target) {
  const auto* inj = ctx_->comm->runtime().fault_injector();
  if (inj == nullptr) return;
  const Target* t = find(target);
  if (t != nullptr &&
      t->seen_revive_epoch !=
          inj->revive_epoch(ctx_->comm->world_rank_of(target))) {
    // The rank came back (FaultInjector::revive): make it immediately
    // eligible again — open breaker, quarantine score, stale EWMAs all go.
    reset_target(target);
  }
}

const std::vector<int>& ResilienceStage::candidate_order(int owner) {
  const int replicas = ctx_->num_replicas();
  const auto rotation = [&] {
    order_.clear();
    // Own group first, then sibling groups' twins in a deterministic
    // rotation starting from this rank's replica index.
    for (int hop = 0; hop < replicas; ++hop) {
      order_.push_back(ctx_->layout->holder(
          (ctx_->replica_index() + hop) % replicas, owner));
    }
  };
  rotation();
  for (int t : order_) refresh_revival(t);
  if (ctx_->config->hedge && order_.size() > 1) {
    // Steering: try quarantined-but-alive targets last, keeping the
    // rotation order within each class (stable, hence deterministic).
    const int primary = order_.front();
    std::stable_partition(order_.begin(), order_.end(),
                          [this](int t) { return !quarantined(t); });
    // A demoted primary is quarantined, so touch finds its record.
    if (order_.front() != primary &&
        ++touch(primary).steer_count % kQuarantineProbeEvery == 0) {
      rotation();  // probation probe: keep the quarantined primary first
    }
  }
  return order_;
}

int ResilienceStage::pick_backup(const std::vector<int>& candidates,
                                 int target) const {
  for (int c : candidates) {
    if (c == target || breaker_open(c)) continue;
    if (!quarantined(c)) return c;
  }
  for (int c : candidates) {
    if (c != target && !breaker_open(c)) return c;
  }
  return -1;
}

bool ResilienceStage::record_failure(Target& rec) {
  rec.health.penalize();
  if (!rec.breaker.on_failure()) return false;
  ++ctx_->metrics->breaker_trips;
  if (tracing::EventTracer* tr = ctx_->tracer()) {
    tracing::EventArgs args;
    args.target = ctx_->comm->world_rank_of(rec.target);
    tr->instant(tracing::Category::Resilience, "breaker_trip",
                ctx_->clock().now(), args);
  }
  return true;
}

ResilienceStage::Attempt ResilienceStage::attempt_once(
    std::uint64_t id, const DataRegistry::Entry& entry, MutableByteSpan dst,
    Target& rec, int backup) {
  const int target = rec.target;
  auto& clock = ctx_->clock();
  FetchMetrics& m = *ctx_->metrics;
  // `backup` is -1 unless hedging is on (see fetch()).  An infinite
  // deadline — hedging disarmed, the target still calibrating, or no
  // viable backup twin — never fires a backup.
  const double deadline = backup >= 0 ? rec.health.deadline()
                                      : std::numeric_limits<double>::infinity();

  // Each leg is one lock epoch around one get.  Price the primary leg at
  // its issue time.  When it settles the attempt (delivered within the
  // deadline, or failed with no backup to race), commit its completion
  // inside the lock epoch.  Otherwise race a backup get at the twin: first
  // response wins, and the clock is monotonic, so the winner is computed
  // before any advance.
  const double t0 = clock.now();
  transport_->lock(target);
  const RmaTransport::Transfer p = transport_->get(
      dst, target, entry.offset, ctx_->nominal_sample_bytes, t0);
  if (p.delivered ? p.done - t0 <= deadline : !std::isfinite(deadline)) {
    clock.advance_to(p.done);
    transport_->unlock(target);
    if (!p.delivered) return Attempt::Failed;
    rec.health.observe(p.done - t0);
    return Attempt::Primary;
  }
  transport_->unlock(target);

  // The backup fires when the origin gives up waiting: at the deadline, or
  // earlier if the primary's failure is observed first.
  ++m.hedged_fetches;
  double b_start = t0 + deadline;
  if (!p.delivered) b_start = std::min(b_start, p.done);
  if (tracing::EventTracer* tr = ctx_->tracer()) {
    tracing::EventArgs args;
    args.target = ctx_->comm->world_rank_of(target);
    args.sample_id = static_cast<std::int64_t>(id);
    args.bytes = static_cast<std::int64_t>(entry.length);
    tr->instant(tracing::Category::Hedge, "hedge_fired", b_start, args);
  }
  hedge_scratch_.assign(entry.length, std::byte{0});
  transport_->lock(backup);
  const RmaTransport::Transfer b = transport_->get(
      MutableByteSpan(hedge_scratch_), backup, entry.offset,
      ctx_->nominal_sample_bytes, b_start);
  transport_->unlock(backup);

  Target& backup_rec = touch(backup);
  if (p.delivered && b.delivered) {
    // Both legs answered: replicas must be byte-identical twins — count
    // (and keep the primary's bytes) if they disagree, it's a real bug or
    // an injected corruption, and the Verify stage gets the final word.
    if (std::memcmp(dst.data(), hedge_scratch_.data(), entry.length) != 0) {
      ++m.hedge_mismatches;
    }
    // The loser's payload is redundant wire traffic, never bytes_fetched.
    m.hedge_cancelled_bytes += entry.length;
    if (b.done < p.done) {
      std::memcpy(dst.data(), hedge_scratch_.data(), entry.length);
      ++m.hedge_wins;
    }
    clock.advance_to(std::min(p.done, b.done));
    rec.health.observe(p.done - t0);
    backup_rec.health.observe(b.done - b_start);
    backup_rec.breaker.on_success();
    return Attempt::Primary;
  }
  if (p.delivered) {
    // Primary answered late but the backup failed outright.
    clock.advance_to(p.done);
    rec.health.observe(p.done - t0);
    record_failure(backup_rec);
    return Attempt::Primary;
  }
  if (b.delivered) {
    // The hedge saved the fetch: primary leg failed, backup delivered.
    std::memcpy(dst.data(), hedge_scratch_.data(), entry.length);
    ++m.hedge_wins;
    clock.advance_to(b.done);
    backup_rec.health.observe(b.done - b_start);
    backup_rec.breaker.on_success();
    record_failure(rec);
    return Attempt::Backup;
  }
  // Both legs failed: the origin has waited out both probes.
  clock.advance_to(std::max(p.done, b.done));
  record_failure(backup_rec);
  return Attempt::Failed;  // the caller records the primary leg's failure
}

void ResilienceStage::fetch(std::uint64_t id, const DataRegistry::Entry& entry,
                            MutableByteSpan dst) {
  FetchMetrics& m = *ctx_->metrics;
  const int owner = static_cast<int>(entry.owner);
  const int primary = ctx_->primary_target(owner);
  const std::vector<int>& order = candidate_order(owner);
  if (ctx_->config->hedge && order.front() != primary) {
    // Steering demoted a quarantined primary: this fetch routes around a
    // degraded-but-alive rank before any breaker has tripped.
    ++m.quarantine_steers;
    if (tracing::EventTracer* tr = ctx_->tracer()) {
      tracing::EventArgs args;
      args.target = ctx_->comm->world_rank_of(primary);
      args.sample_id = static_cast<std::int64_t>(id);
      tr->instant(tracing::Category::Hedge, "quarantine_steer",
                  ctx_->clock().now(), args);
    }
  }

  for (const int target : order) {
    // Every attempt writes the target's record (an observation or a
    // penalty), and only a record's breaker can be open, so taking it here
    // creates no record for a target the fetch never writes.  Room for the
    // hedge backup's record too, so `rec` stays put through the attempt.
    make_room(2);
    Target& rec = touch(target);
    if (rec.breaker.should_skip()) {
      // Breaker open: don't hammer a target that just failed repeatedly.
      // The skip that exhausts the cooldown arms the half-open probe.
      continue;
    }
    const int backup = ctx_->config->hedge ? pick_backup(order, target) : -1;
    bool abandon = false;
    for (int attempt = 1; attempt <= kMaxAttempts && !abandon; ++attempt) {
      if (attempt > 1) {
        double delay = kBackoffBaseS;
        for (int i = 2; i < attempt; ++i) delay *= kBackoffMultiplier;
        delay *= 1.0 + kBackoffJitter * backoff_rng_.uniform();
        tracing::Span backoff(ctx_->tracer(), ctx_->clock(),
                              tracing::Category::Resilience, "backoff");
        backoff.args().target = ctx_->comm->world_rank_of(target);
        backoff.args().sample_id = static_cast<std::int64_t>(id);
        backoff.args().attempt = attempt;
        ctx_->clock().advance(delay);
        ++m.retries;
      }
      const Attempt got = attempt_once(id, entry, dst, rec, backup);
      if (got != Attempt::Failed && payload_intact(entry, ByteSpan(dst))) {
        const int served = got == Attempt::Backup ? backup : target;
        if (got == Attempt::Primary) rec.breaker.on_success();
        if (served != primary) {
          ++m.failovers;
          if (tracing::EventTracer* tr = ctx_->tracer()) {
            tracing::EventArgs args;
            args.target = ctx_->comm->world_rank_of(served);
            args.sample_id = static_cast<std::int64_t>(id);
            tr->instant(tracing::Category::Resilience, "failover",
                        ctx_->clock().now(), args);
          }
        }
        return;
      }
      // Failed attempt (a checksum mismatch on a served payload counts
      // against the addressed target too); a breaker trip abandons the
      // target and moves to the next candidate.
      abandon = record_failure(rec);
    }
  }

  // Degraded mode: every in-memory route is exhausted; re-read the sample
  // from the parallel filesystem through the format plugin.
  tracing::Span span(ctx_->tracer(), ctx_->clock(),
                     tracing::Category::Resilience, "fs_fallback");
  span.args().sample_id = static_cast<std::int64_t>(id);
  span.args().bytes = static_cast<std::int64_t>(entry.length);
  const ByteBuffer bytes = ctx_->reader->read_bytes(id, *ctx_->fs_client);
  if (bytes.size() != entry.length ||
      (entry.checksum != 0 && checksum64(ByteSpan(bytes)) != entry.checksum)) {
    throw DataError("FS fallback read of sample " + std::to_string(id) +
                    " disagrees with the registry");
  }
  std::memcpy(dst.data(), bytes.data(), bytes.size());
  ++m.degraded_reads;
}

}  // namespace dds::core::fetch

// Staging stage: the asynchronous cold-tier read path of the tiered store.
//
// Sits between the Cache and Transport stages (DESIGN.md stage diagram):
// samples outside the hot shard never reach the RMA transport.  Instead a
// cold miss is enqueued into a deep asynchronous staging queue whose
// completion is modeled at enqueue time by the parallel filesystem's
// deferred object read (ParallelFileSystem::stage_read_at) — the clock
// does NOT advance while a read sits in the queue, exactly like an
// RmaTransport get.  The consumer blocks (advance_to) only when
// it drains the entry for bytes it needs, so with a deep enough queue the
// storage latency hides behind hot RMA traffic and — through the
// trainer's prefetch depth — training compute.
//
// Queue semantics: staging_depth bounds the in-flight reads per rank.  The
// k-th enqueued read issues at max(enqueue time, completion of the
// (k-depth)-th read) — backpressure shows up as later completions, never
// as a caller stall, which is how a real submission ring behaves.
//
// Admission: a drained sample is promoted into the rank's *staged set* — a
// bounded LRU that is part of the hot shard's memory budget.  The staged
// set is rank-private memory that no peer ever reads through the window,
// so promotion takes no lock epoch.
//
// Byte identity: the data plane serves cold bytes from the owner's
// exposed region, the same memory every other path reads — tiering only
// changes *when* bytes arrive, never *which* bytes.  And no RNG stream is
// ever consumed here, so arming tiering cannot perturb fault, jitter, or
// backoff sequences.
#pragma once

#include <cstdint>
#include <deque>

#include "core/fetch/cache.hpp"
#include "core/fetch/context.hpp"

namespace dds::core::fetch {

class StagingStage {
 public:
  /// The storage reads are modeled on the context's filesystem.
  explicit StagingStage(const FetchContext& ctx);

  /// True when `id` lives outside its owner's hot prefix under the current
  /// layout (re-read through the context on every call, so an elastic
  /// reshard retargets the partition without a rebuild).
  bool is_cold(std::uint64_t id) const {
    return !ctx_->layout->is_hot(id);
  }

  /// Staged-set lookup (promotes recency on a hit).  The pointer stays
  /// valid until the next drain.  Counts nothing — the engine accounts
  /// hits so batch and single paths share one bookkeeping site.
  const ByteBuffer* staged_lookup(std::uint64_t id) {
    return staged_.lookup(id);
  }
  bool staged_contains(std::uint64_t id) const {
    return staged_.contains(id);
  }

  /// Enqueues one cold read: copies the sample's bytes from the owner's
  /// exposed region (data plane) and models the staged read's completion
  /// as of now (timing plane), without advancing the clock.  No-op when
  /// `id` is already in flight (a batch can repeat ids).  Counts the cold
  /// miss.
  void enqueue(std::uint64_t id, const DataRegistry::Entry& entry);

  /// Drains the in-flight entry for `id`: advances the clock to its
  /// modeled completion (recording how long the consumer actually
  /// blocked), promotes it into the staged set, and returns the bytes.
  /// `id` must have been enqueued.
  ByteBuffer drain(std::uint64_t id);

  /// The staged set (tests/diagnostics).  Contents survive reset_stats()
  /// exactly like the sample cache: warmth is state, not a statistic.
  const SampleCache& staged_set() const { return staged_; }

  /// In-flight reads currently queued (survives reset_stats() too — the
  /// queue is modeled hardware state, not a counter).
  std::size_t inflight() const { return queue_.size(); }

 private:
  struct InFlight {
    std::uint64_t id = 0;
    double done = 0.0;
    ByteBuffer bytes;
  };

  const FetchContext* ctx_;
  /// In-flight reads in enqueue order.  Issue times are serialized against
  /// recent_dones_ so at most staging_depth reads occupy the device at any
  /// modeled instant, however many entries the caller queues.
  std::deque<InFlight> queue_;
  /// Completions of the last staging_depth enqueued reads (issue-time
  /// serialization window).
  std::deque<double> recent_dones_;
  SampleCache staged_;  ///< promoted cold samples (bounded LRU)
};

}  // namespace dds::core::fetch

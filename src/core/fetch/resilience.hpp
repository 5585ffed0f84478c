// Resilience stage: retry, circuit breakers, cross-group failover, hedged
// fetches, health-scored steering, and the degraded-mode filesystem
// fallback, wrapped around the Transport stage.
//
// The stage wraps any transport the engine points it at: it decides *which*
// target to ask and *how often*, and delegates the actual wire work (and
// the injected chaos) to RmaTransport.  With fault injection off and
// hedging disabled, none of this machinery fires — a fetch is one
// transport get.
//
// Crash-robustness: per-target retry with jittered backoff, a three-state
// circuit breaker (see health.hpp), failover across replica groups, and
// finally the FS fallback.  All four are always on; the retry constants
// live in resilience.cpp, the breaker's in health.hpp.
//
// Latency-robustness (gated on DDStoreConfig::hedge):
//  * candidate steering — quarantined-but-alive targets (health score
//    below the threshold) are tried last instead of first;
//  * hedged gets — when a fetch's modeled completion exceeds the target's
//    adaptive deadline, a backup get races it at the sample's twin in a
//    sibling replica group; first response wins, both-delivered payloads
//    are verified byte-identical, and the loser's bytes are counted as
//    cancelled (never into bytes_fetched).
//
// Health bookkeeping (service-time EWMAs, penalties) runs even with
// hedging off: it costs zero virtual time and no counters, and gives the
// elastic driver its continuous per-rank HealthScore signal in every
// configuration.
//
// Stage-ordering invariant (see DESIGN.md): the Cache stage runs before
// this one, so cache hits never consume retry budget, never count against a
// target's breaker, and never reach the filesystem fallback.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/fetch/context.hpp"
#include "core/fetch/health.hpp"
#include "core/fetch/transport.hpp"

namespace dds::core::fetch {

class ResilienceStage {
 public:
  ResilienceStage(const FetchContext& ctx, RmaTransport& transport);

  /// Fetches one sample's bytes with the full policy: retry with backoff
  /// per target, trip circuit breakers, fail over across replica groups
  /// (hedging and steering when armed), and finally fall back to the
  /// filesystem.  Every attempt and every hedged leg takes its own shared
  /// lock epoch around its one get.  Throws DataError if the filesystem
  /// copy disagrees with the registry; an injected FS read error
  /// propagates as IoError.
  void fetch(std::uint64_t id, const DataRegistry::Entry& entry,
             MutableByteSpan dst);

  /// Verify stage helper: true when `dst` matches `entry`'s recorded
  /// checksum (or no checksum is recorded).  Counts a checksum failure
  /// when it lies.
  bool payload_intact(const DataRegistry::Entry& entry, ByteSpan dst);

  /// True while `target`'s circuit breaker is open.  A revival of the
  /// target since the breaker last observed it reads as closed — a revived
  /// rank is immediately eligible again (the stale record is dropped on
  /// the next fetch).
  bool breaker_open(int target) const;

  /// Continuous health of one comm-rank target in [0, 1]: 0 while its
  /// breaker is open, otherwise its TargetHealth score.  The elastic
  /// driver aggregates this as its dead-rank suspicion signal.
  double health_score(int target) const {
    if (breaker_open(target)) return 0.0;
    const Target* t = find(target);
    return t == nullptr ? 1.0 : t->health.score();
  }

  /// Forgets `target`'s failure history — called after the elastic
  /// fault-recovery hook rebuilds a revived rank's chunk, so fetches
  /// resume trying it immediately instead of waiting out the cooldown.
  void reset_target(int target) {
    if (find(target) != nullptr) rebuild(table_.size(), target);
  }

  /// Targets whose state this rank's fetch path wrote since their reset.
  std::size_t targets() const { return records_; }

 private:
  /// One comm-rank target's breaker and health state, plus the last
  /// revival epoch this stage observed for the rank (injector generation
  /// counter).  Only touched targets have one: all ranks share a process,
  /// so a table sized to the communicator would cost N^2.  An absent
  /// target reads as fresh: closed breaker, score 1, infinite deadline.
  struct Target {
    CircuitBreaker breaker;
    int target = -1;  ///< comm rank; -1 marks an empty table slot
    TargetHealth health;
    std::uint32_t seen_revive_epoch = 0;
    /// Times this target was demoted as a quarantined primary; every
    /// kQuarantineProbeEvery-th demotion becomes a probation probe instead
    /// (the rotation order is kept), so the health tracker keeps observing
    /// the rank and a recovered one can earn its way back — pure steering
    /// would starve the EWMA and quarantine forever.
    std::uint32_t steer_count = 0;
  };

  /// How one transfer attempt ended: nothing delivered, the addressed
  /// target delivered, or the hedge backup's response won.
  enum class Attempt { Failed, Primary, Backup };

  /// `target`'s record, created on first use at the rank's current revival
  /// epoch.  A new record needs room (make_room); records move only when
  /// the table grows or drops one, so references survive touches.
  Target& touch(int target);

  /// `target`'s record, or nullptr when it reads as fresh.  Never inserts.
  const Target* find(int target) const;

  /// Table slot holding `target`, or the empty slot that ends its probe
  /// run.  Requires a non-empty table.
  std::size_t slot_of(int target) const;

  /// Grows the table until `inserts` more records fit.
  void make_room(std::size_t inserts);

  /// Rehashes every record except `drop`'s into `slots` fresh slots.
  void rebuild(std::size_t slots, int drop);

  bool quarantined(int target) const {
    const Target* t = find(target);
    return t != nullptr && t->health.quarantined();
  }

  /// Lazily drops the record of a target whose rank was revived since this
  /// stage last looked, so no collective reset is needed for eligibility.
  void refresh_revival(int target);

  /// Builds the candidate target order for one fetch (into the reused
  /// `order_` scratch): the deterministic replica rotation, with
  /// quarantined candidates demoted to the back (stable) when steering is
  /// armed.  Also lazily absorbs revivals for every candidate.
  const std::vector<int>& candidate_order(int owner);

  /// Picks the hedge backup for `target` from `candidates`: the first
  /// other candidate that is neither breaker-open nor quarantined (then
  /// the first merely non-open one), or -1.
  int pick_backup(const std::vector<int>& candidates, int target) const;

  /// One transfer attempt at `rec`'s target, hedged when armed and
  /// calibrated.  On Attempt::Backup the helper has already recorded the
  /// backup's bookkeeping and the primary's failure penalty/breaker strike.
  Attempt attempt_once(std::uint64_t id, const DataRegistry::Entry& entry,
                       MutableByteSpan dst, Target& rec, int backup);

  /// Records one failed attempt at `rec`'s target: health penalty plus
  /// breaker strike; returns true when the strike tripped the breaker
  /// (counted and traced here).
  bool record_failure(Target& rec);

  const FetchContext* ctx_;
  RmaTransport* transport_;
  /// Touched targets' records in an open-addressing table (linear probing,
  /// size a power of two at most 3/4 full, empty slots hold default
  /// records).  Flat, not node-based: on a global shuffle most fetches meet
  /// a new target, and a node map cost scale_1024 ~10% of its host speed.
  std::vector<Target> table_;
  std::size_t records_ = 0;
  int shift_ = 64;  ///< 64 - log2(table_.size())
  /// Backoff jitter draws from a stage-private stream seeded by world
  /// rank, never from the rank's shared Comm RNG: other consumers of that
  /// RNG (brokers, prefetch jitter) must not shift resilient-path virtual
  /// times between configurations that draw from it differently.
  Rng backoff_rng_;
  std::vector<int> order_;    ///< candidate_order scratch (reused per fetch)
  ByteBuffer hedge_scratch_;  ///< backup leg's landing buffer
};

}  // namespace dds::core::fetch

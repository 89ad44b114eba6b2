// Cross-query access sharing and result caching.
//
// The concurrent QueryServer runs many queries over the *same* simulated
// web sources, and without sharing every worker re-bills accesses some
// other query already paid for. This subsystem sits behind the SourceSet
// access seam (access/source.h attaches one with set_access_cache) and
// is shared across workers. Three mechanisms:
//
//   * Shared sorted streams. One internally-synchronized descending
//     prefix per (predicate, replica-topology), consumed by position.
//     Sorted access is progressive and deterministic: position p of
//     predicate i names the same (object, score) for every query over
//     the same dataset, so a prefix materialized by query A serves
//     query B verbatim. The bound side-effect stays sound: serving the
//     cached entry at position p lowers B's last-seen bound l_i exactly
//     as the real access would have.
//   * A random-access / result cache. Scored (predicate, object) pairs
//     with a TTL, explicit invalidation, and an LRU capacity bound, so
//     hot objects are fetched from the source once.
//   * Single-flight dedup. When two workers want the same entry at the
//     same instant, one performs the underlying access (the owner) and
//     the rest wait for its published result (an "in-flight merge")
//     instead of issuing duplicates.
//
// Billing stays honest: the underlying source is billed once, by the
// owner, through the normal SourceSet path; a cache-served access is
// charged CacheConfig::hit_cost (default 0) into the same Eq. 1
// accounting cells, so the billing-conservation invariant (stats cost
// cells sum to accrued_cost) holds with the cache enabled.
//
// Staleness: the cache binds to a dataset fingerprint
// (BindOrInvalidate); re-binding against different data drops every
// entry, so a reused stack never serves scores from a previous dataset.
// Source deaths invalidate the affected predicates conservatively.
//
// Thread safety: every public method is safe for concurrent use (one
// mutex + condition variable; entries are copied out under the lock).
// See docs/CACHE.md for the full soundness argument.

#ifndef NC_CACHE_CACHE_H_
#define NC_CACHE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/score.h"
#include "common/status.h"

namespace nc::obs {
class Counter;
class MetricsRegistry;
}  // namespace nc::obs

namespace nc::cache {

// Tunables for one shared AccessCache.
struct CacheConfig {
  // Eq. 1 charge for a cache-served access (flat, no page model: the
  // page request was already paid by whichever query materialized the
  // entry). 0 models a free local hit.
  double hit_cost = 0.0;
  // LRU capacity bound on random/result entries (shared streams are
  // bounded by the dataset itself and are not evicted).
  size_t random_capacity = 4096;
  // Seconds (on the cache clock) before a random entry goes stale and
  // is refetched; 0 = entries never expire.
  double random_ttl = 0.0;

  Status Validate() const;
};

// One materialized sorted-stream entry: exactly what the real access
// returned, bundled attribute-group scores included.
struct CachedSortedEntry {
  ObjectId object = 0;
  Score score = 0.0;
  std::vector<std::pair<PredicateId, Score>> bundled;
};

// Point-in-time counters and occupancy, for /varz and RunReport.
struct CacheStatsSnapshot {
  size_t sorted_hits = 0;
  size_t sorted_misses = 0;
  size_t random_hits = 0;
  size_t random_misses = 0;
  size_t inflight_merges = 0;
  size_t evictions = 0;
  size_t expirations = 0;
  size_t invalidations = 0;
  size_t random_entries = 0;
  size_t stream_entries = 0;
  // Approximate resident payload bytes (entries, not container overhead).
  size_t bytes = 0;
  // Materialized depth per shared stream, (predicate, depth), sorted by
  // predicate then topology order.
  std::vector<std::pair<PredicateId, size_t>> stream_depths;

  size_t hits() const { return sorted_hits + random_hits; }
  size_t misses() const { return sorted_misses + random_misses; }
  // Hits / lookups; 0 before the first lookup.
  double hit_rate() const;
};

// What AcquireSorted decided for one lookup.
enum class SortedLookup {
  kHit,     // *out is the cached entry; serve it without a real access.
  kOwner,   // Caller must perform the real access, then Publish or Abort.
  kBypass,  // Position is beyond the materialized prefix + 1 (e.g. a
            // checkpoint-restored cursor): perform the real access but
            // do NOT publish - the prefix may not grow holes.
};

// What AcquireRandom decided for one lookup.
enum class RandomLookup {
  kHit,    // *out is the cached score.
  kOwner,  // Caller must perform the real access, then Publish or Abort.
};

// The shared cache. One instance serves every worker of a QueryServer
// (or any set of SourceSets over the same dataset); all methods are
// thread-safe. Owners MUST pair every kOwner acquire with exactly one
// Publish* or Abort* call, or waiters block forever.
class AccessCache {
 public:
  explicit AccessCache(CacheConfig config = CacheConfig{});
  AccessCache(const AccessCache&) = delete;
  AccessCache& operator=(const AccessCache&) = delete;

  const CacheConfig& config() const { return config_; }

  // Clock used for TTL stamping; default is a process-wide monotonic
  // second counter. Test hook - install before first use.
  void set_clock(std::function<double()> clock);

  // Attaches a metrics registry (nullptr detaches; must outlive the
  // cache). Bumps nc_cache_{hits,misses,inflight_merges,evictions}_total.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  // Binds the cache to a dataset fingerprint. Binding the fingerprint
  // already bound is a no-op (per-query Reset() re-binds harmlessly);
  // a different fingerprint drops every entry and bumps generation().
  void BindOrInvalidate(uint64_t fingerprint);
  // How many times the cache has been wiped (rebinds + Clear calls).
  uint64_t generation() const;

  // --- Shared sorted streams -------------------------------------------
  // Looks up position `pos` of stream (predicate, topology). kHit fills
  // *out (and sets *merged when the entry was awaited from an in-flight
  // owner). kOwner claims the single-flight slot at the stream head and
  // fills *ticket; the ticket must be passed back to Publish/Abort so a
  // publish that straddles an invalidation is dropped instead of
  // poisoning the rebuilt stream.
  SortedLookup AcquireSorted(PredicateId predicate, uint64_t topology,
                             size_t pos, CachedSortedEntry* out,
                             bool* merged, uint64_t* ticket);
  // Owner success: appends the entry at `pos` (must still be the claimed
  // head under `ticket`; stale publishes are dropped) and wakes waiters.
  void PublishSorted(PredicateId predicate, uint64_t topology, size_t pos,
                     uint64_t ticket, CachedSortedEntry entry);
  // Owner failure: releases the claim; a waiter retries as the new owner.
  void AbortSorted(PredicateId predicate, uint64_t topology, size_t pos,
                   uint64_t ticket);

  // --- Random / result cache -------------------------------------------
  RandomLookup AcquireRandom(PredicateId predicate, ObjectId object,
                             Score* out, bool* merged, uint64_t* ticket);
  void PublishRandom(PredicateId predicate, ObjectId object, Score score,
                     uint64_t ticket);
  void AbortRandom(PredicateId predicate, ObjectId object, uint64_t ticket);

  // --- Invalidation ----------------------------------------------------
  // Drops one random entry, if present.
  void InvalidateRandom(PredicateId predicate, ObjectId object);
  // Drops every entry touching `predicate` (its shared streams and its
  // random entries) - the conservative response to a source death.
  void InvalidatePredicate(PredicateId predicate);
  // Drops everything and bumps generation().
  void Clear();

  // --- Introspection ---------------------------------------------------
  // Materialized depth of one shared stream (0 when absent).
  size_t StreamDepth(PredicateId predicate, uint64_t topology) const;
  CacheStatsSnapshot Snapshot() const;

 private:
  using StreamKey = std::pair<PredicateId, uint64_t>;
  using RandomKey = std::pair<PredicateId, ObjectId>;

  struct Stream {
    std::vector<CachedSortedEntry> entries;
    // Nonzero while an owner materializes entries[entries.size()]; the
    // value is that owner's single-flight ticket.
    uint64_t filling_ticket = 0;
  };

  struct RandomEntry {
    Score score = 0.0;
    double stored_at = 0.0;
    // Position in lru_ (front = most recently used).
    std::list<RandomKey>::iterator lru_pos;
  };

  // All mu_-guarded; callers hold the lock.
  void DropEverythingLocked();
  void TouchLocked(RandomEntry* entry, const RandomKey& key);
  void EvictIfOverCapacityLocked();

  const CacheConfig config_;
  std::function<double()> clock_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t fingerprint_ = 0;
  bool bound_ = false;
  uint64_t generation_ = 0;
  std::map<StreamKey, Stream> streams_;
  std::map<RandomKey, RandomEntry> random_;
  // LRU order over random_, front = most recently used.
  std::list<RandomKey> lru_;
  // Random keys currently being fetched by an owner, with that owner's
  // single-flight ticket.
  std::map<RandomKey, uint64_t> random_inflight_;
  uint64_t next_ticket_ = 1;

  // Counters (mu_-guarded; snapshot under the same lock).
  CacheStatsSnapshot tallies_;

  // Metrics mirrors (registry is internally synchronized; Increment is
  // a lock-free atomic add, safe to call while holding mu_).
  obs::Counter* m_sorted_hits_ = nullptr;
  obs::Counter* m_sorted_misses_ = nullptr;
  obs::Counter* m_random_hits_ = nullptr;
  obs::Counter* m_random_misses_ = nullptr;
  obs::Counter* m_merges_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
};

}  // namespace nc::cache

#endif  // NC_CACHE_CACHE_H_

// Lazy max-heap over maximal-possible scores, with a settled prefix.
//
// Upper bounds in top-k processing only ever decrease (F is monotone, the
// last-seen scores l_i fall, and an exact score never exceeds the bound it
// replaces). The heap exploits this: cached priorities are stale-high, so
// the entry at the root is the true maximum iff its recomputed bound
// matches its cached one; otherwise it is reinserted with the fresh bound
// and the search continues. This is MPro's queue trick and gives
// O(log n) amortized top-k maintenance without global rescans.
//
// Popped entries form the *verified prefix*, in rank order. Theorem 1
// needs only its first non-final entry (the first incomplete member of
// the top-k): every *final* entry - an exact score - verified ahead of it
// is settled and leaves the lazy order for good. Nothing can overtake a
// settled entry: bounds only fall, and a newly discovered candidate's
// bound is at most the unseen sentinel's, which already ranked below.
// The one exception is an exact tie that wins on ObjectId; a Push that
// ranks above the last settled entry therefore un-settles the prefix.
// So each Theorem 1 iteration pops only down to its target instead of
// the whole top-k, and exact termination is "k entries settled".
//
// Each live object has exactly one entry; ties order by descending
// ObjectId (the library-wide deterministic tie-breaker), except that the
// virtual unseen object (id = kUnseenObject) ranks below any seen object
// with an equal bound - a hit object immediately surfaces above `unseen`
// (the paper's Figure 10).

#ifndef NC_CORE_BOUND_HEAP_H_
#define NC_CORE_BOUND_HEAP_H_

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/score.h"

namespace nc {

class LazyBoundHeap {
 public:
  struct Entry {
    Score bound = 0.0;
    ObjectId object = 0;
  };

  // Recomputes the current bound of an object; nullopt retires the entry
  // (used for the unseen sentinel once every object has been seen).
  // Must never return a value above the entry's cached bound.
  using BoundFn = std::function<std::optional<Score>(ObjectId)>;
  // True when the object's bound is final: its exact score, which can
  // never change again (a complete candidate).
  using FinalFn = std::function<bool(ObjectId)>;

  // Adds an entry. The caller guarantees the object is not already in the
  // heap. Returns any held-out entries first (see Restore), and
  // un-settles the prefix if the new entry ranks above its last entry.
  void Push(ObjectId object, Score bound);

  // Theorem 1's pop: walks the verified prefix in rank order, extending
  // it from the lazy heap as needed, and settles every final entry until
  // `k` are settled. Returns the first non-final entry (the task target),
  // which stays held out of the heap until Restore; nullopt when `k`
  // entries are settled or the heap ran out (all of it then settled).
  std::optional<Entry> PopUnsettled(size_t k, const BoundFn& bound_fn,
                                    const FinalFn& is_final);

  // Extends the verified prefix to `count` entries (fewer only when the
  // heap runs out) and returns it: settled entries first, then held-out
  // ones, highest current bound first. Valid until the next Push,
  // Restore or bound change.
  std::span<const Entry> Verified(size_t count, const BoundFn& bound_fn);

  // Returns held-out (verified but unsettled) entries to the lazy heap.
  // Call once bounds may have changed, before the next pop.
  void Restore();

  // The settled prefix, in rank order.
  std::span<const Entry> settled() const {
    return std::span<const Entry>(verified_).first(num_settled_);
  }

  size_t size() const { return verified_.size() + heap_.size(); }

  // Every live entry - settled, held out and lazy - for checkpointing.
  // Behavior depends only on the *multiset* of entries (the comparator is
  // a strict total order), so re-Pushing these in any order reproduces
  // identical pop sequences.
  std::vector<Entry> entries() const;

 private:
  // std::push_heap/pop_heap over this comparator keep the max on top.
  static bool Before(const Entry& a, const Entry& b);

  void HeapPush(const Entry& e);
  // Pops the next verified entry onto verified_; false when empty.
  bool VerifyNext(const BoundFn& bound_fn);

  // The verified prefix: [0, num_settled_) settled, the rest held out.
  std::vector<Entry> verified_;
  size_t num_settled_ = 0;
  std::vector<Entry> heap_;
};

}  // namespace nc

#endif  // NC_CORE_BOUND_HEAP_H_

// Lazy max-heap over maximal-possible scores, with a settled prefix.
//
// Upper bounds in top-k processing only ever decrease (F is monotone, the
// last-seen scores l_i fall, and an exact score never exceeds the bound it
// replaces). The heap exploits this: cached priorities are stale-high, so
// the entry at the root is the true maximum iff its recomputed bound
// matches its cached one; otherwise it is refreshed where it sits, sifted
// down once, and the search continues. This is MPro's queue trick and
// gives O(log n) amortized top-k maintenance without global rescans.
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
// Each live object has exactly one entry, which carries the object's
// CandidatePool slot (core/candidate.h) so a refresh reads its scores
// without a lookup. Ties order by descending ObjectId (the library-wide
// deterministic tie-breaker), except that the virtual unseen object
// (id = kUnseenObject) ranks below any seen object with an equal bound -
// a hit object immediately surfaces above `unseen` (the paper's
// Figure 10).

#ifndef NC_CORE_BOUND_HEAP_H_
#define NC_CORE_BOUND_HEAP_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/score.h"
#include "core/rank_order.h"

namespace nc {

class LazyBoundHeap {
 public:
  struct Entry {
    Score bound = 0.0;
    ObjectId object = 0;
    // The object's pool slot (CandidatePool::kNoSlot for the sentinel);
    // opaque to the heap, handed back to the callbacks.
    uint32_t slot = UINT32_MAX;
  };

  // The callbacks are template parameters, called with the entry:
  //   bound_fn(const Entry&) -> std::optional<Score>
  //     recomputes the entry's current bound; nullopt retires the entry
  //     (the unseen sentinel once every object has been seen). Must never
  //     return a value above the entry's cached bound.
  //   is_final(const Entry&) -> bool
  //     true when the entry's bound is final: its exact score, which can
  //     never change again (a complete candidate).

  // Adds an entry. The caller guarantees the object is not already in the
  // heap. Returns any held-out entries first (see Restore), and
  // un-settles the prefix if the new entry ranks above its last entry.
  void Push(ObjectId object, Score bound, uint32_t slot = UINT32_MAX);

  // Theorem 1's pop: walks the verified prefix in rank order, extending
  // it from the lazy heap as needed, and settles every final entry until
  // `k` are settled. Returns the first non-final entry (the task target),
  // which stays held out of the heap until Restore; nullopt when `k`
  // entries are settled or the heap ran out (all of it then settled).
  template <typename BoundFn, typename FinalFn>
  std::optional<Entry> PopUnsettled(size_t k, BoundFn&& bound_fn,
                                    FinalFn&& is_final) {
    while (num_settled_ < k) {
      if (num_settled_ == verified_.size() && !VerifyNext(bound_fn)) {
        return std::nullopt;
      }
      const Entry& next = verified_[num_settled_];
      if (!is_final(next)) return next;
      ++num_settled_;
      // A settled entry leaves the lazy order for good.
      if (num_settled_ == verified_.size()) DropHeldRoot();
    }
    return std::nullopt;
  }

  // Extends the verified prefix to `count` entries (fewer only when the
  // heap runs out) and returns it: settled entries first, then held-out
  // ones, highest current bound first. Valid until the next Push,
  // Restore or bound change.
  template <typename BoundFn>
  std::span<const Entry> Verified(size_t count, BoundFn&& bound_fn) {
    while (verified_.size() < count && VerifyNext(bound_fn)) {
    }
    return std::span<const Entry>(verified_).first(
        std::min(count, verified_.size()));
  }

  // Returns held-out (verified but unsettled) entries to the lazy heap.
  // Call once bounds may have changed, before the next pop.
  void Restore();

  // The settled prefix, in rank order.
  std::span<const Entry> settled() const {
    return std::span<const Entry>(verified_).first(num_settled_);
  }

  size_t size() const {
    return verified_.size() + heap_.size() - (root_held_ ? 1 : 0);
  }

  // Every live entry - settled, held out and lazy - for checkpointing.
  // Behavior depends only on the *multiset* of entries (the comparator is
  // a strict total order), so re-Pushing these in any order reproduces
  // identical pop sequences.
  std::vector<Entry> entries() const;

 private:
  // True when a ranks strictly above b: the max-heap order.
  static bool Above(const Entry& a, const Entry& b) {
    return RanksAbove(a.bound, a.object, b.bound, b.object);
  }

  void HeapPush(const Entry& e);
  // Restores the heap order below position `i` after its entry fell;
  // returns the entry's new position.
  size_t SiftDown(size_t i);
  void PopRoot();
  // Removes the held root (see root_held_) from heap_, if there is one.
  void DropHeldRoot() {
    if (root_held_) {
      root_held_ = false;
      PopRoot();
    }
  }

  // Moves the next verified entry onto verified_; false when empty.
  // Stale roots are refreshed in place and sifted down; one that stays on
  // top is verified at once, its bound being fresh.
  template <typename BoundFn>
  bool VerifyNext(BoundFn& bound_fn) {
    DropHeldRoot();
    while (!heap_.empty()) {
      Entry& top = heap_.front();
      const std::optional<Score> current = bound_fn(top);
      if (!current.has_value()) {  // Entry retired.
        PopRoot();
        continue;
      }
      NC_DCHECK(*current <= top.bound);
      if (*current < top.bound) {
        top.bound = *current;
        if (SiftDown(0) != 0) continue;
      }
      verified_.push_back(heap_.front());
      root_held_ = true;
      return true;
    }
    return false;
  }

  // The verified prefix: [0, num_settled_) settled, the rest held out.
  std::vector<Entry> verified_;
  size_t num_settled_ = 0;
  // Binary max-heap under Above.
  std::vector<Entry> heap_;
  // The last verified entry is held out, but its removal from heap_ is
  // deferred: while set, heap_[0] is a copy of verified_.back() and not
  // part of the lazy order. The next VerifyNext pops it; a Restore that
  // returns it simply keeps it, which spares a full-depth sift-down and
  // sift-up per Theorem 1 iteration.
  bool root_held_ = false;
};

}  // namespace nc

#endif  // NC_CORE_BOUND_HEAP_H_

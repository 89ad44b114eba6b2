#include "core/bound_heap.h"

#include <algorithm>

#include "common/check.h"
#include "core/rank_order.h"

namespace nc {

bool LazyBoundHeap::Before(const Entry& a, const Entry& b) {
  // "Less" for a max-heap: true when a ranks strictly below b, under the
  // library-wide rank order (core/rank_order.h).
  return RanksAbove(b.bound, b.object, a.bound, a.object);
}

void LazyBoundHeap::HeapPush(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Before);
}

void LazyBoundHeap::Push(ObjectId object, Score bound) {
  Restore();
  if (num_settled_ > 0) {
    const Entry& last = verified_[num_settled_ - 1];
    if (RanksAbove(bound, object, last.bound, last.object)) {
      // The newcomer would overtake a settled entry: hand the prefix back
      // to the lazy order (its bounds are exact, so it re-verifies at
      // once).
      for (const Entry& e : verified_) HeapPush(e);
      verified_.clear();
      num_settled_ = 0;
    }
  }
  HeapPush(Entry{bound, object});
}

bool LazyBoundHeap::VerifyNext(const BoundFn& bound_fn) {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Before);
    Entry top = heap_.back();
    heap_.pop_back();
    const std::optional<Score> current = bound_fn(top.object);
    if (!current.has_value()) continue;  // Entry retired.
    NC_DCHECK(*current <= top.bound);
    if (*current < top.bound) {
      // Stale: refresh and keep searching.
      top.bound = *current;
      HeapPush(top);
      continue;
    }
    verified_.push_back(top);
    return true;
  }
  return false;
}

std::optional<LazyBoundHeap::Entry> LazyBoundHeap::PopUnsettled(
    size_t k, const BoundFn& bound_fn, const FinalFn& is_final) {
  while (num_settled_ < k) {
    if (num_settled_ == verified_.size() && !VerifyNext(bound_fn)) {
      return std::nullopt;
    }
    const Entry& next = verified_[num_settled_];
    if (!is_final(next.object)) return next;
    ++num_settled_;
  }
  return std::nullopt;
}

std::span<const LazyBoundHeap::Entry> LazyBoundHeap::Verified(
    size_t count, const BoundFn& bound_fn) {
  while (verified_.size() < count && VerifyNext(bound_fn)) {
  }
  return std::span<const Entry>(verified_).first(
      std::min(count, verified_.size()));
}

void LazyBoundHeap::Restore() {
  for (size_t i = num_settled_; i < verified_.size(); ++i) {
    HeapPush(verified_[i]);
  }
  verified_.resize(num_settled_);
}

std::vector<LazyBoundHeap::Entry> LazyBoundHeap::entries() const {
  std::vector<Entry> all = verified_;
  all.insert(all.end(), heap_.begin(), heap_.end());
  return all;
}

}  // namespace nc

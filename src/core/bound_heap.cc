#include "core/bound_heap.h"

namespace nc {

void LazyBoundHeap::HeapPush(const Entry& e) {
  size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Above(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

size_t LazyBoundHeap::SiftDown(size_t i) {
  const size_t n = heap_.size();
  Entry* const h = heap_.data();
  const Entry e = h[i];
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    // Branch-free pick of the higher child (see RanksAbove).
    if (child + 1 < n) child += Above(h[child + 1], h[child]) ? 1 : 0;
    if (!Above(h[child], e)) break;
    h[i] = h[child];
    i = child;
  }
  h[i] = e;
  return i;
}

void LazyBoundHeap::PopRoot() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

void LazyBoundHeap::Push(ObjectId object, Score bound, uint32_t slot) {
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
  HeapPush(Entry{bound, object, slot});
}

void LazyBoundHeap::Restore() {
  // A held root is verified_.back(), already in place in heap_.
  const size_t end = verified_.size() - (root_held_ ? 1 : 0);
  root_held_ = false;
  for (size_t i = num_settled_; i < end; ++i) HeapPush(verified_[i]);
  verified_.resize(num_settled_);
}

std::vector<LazyBoundHeap::Entry> LazyBoundHeap::entries() const {
  std::vector<Entry> all = verified_;
  all.insert(all.end(), heap_.begin() + (root_held_ ? 1 : 0), heap_.end());
  return all;
}

}  // namespace nc

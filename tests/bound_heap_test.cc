#include "core/bound_heap.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/rank_order.h"

namespace nc {
namespace {

using Entry = LazyBoundHeap::Entry;

const auto kNeverFinal = [](ObjectId) { return false; };

TEST(BoundHeapTest, VerifiedStableBounds) {
  LazyBoundHeap heap;
  heap.Push(0, 0.3);
  heap.Push(1, 0.9);
  heap.Push(2, 0.6);
  std::map<ObjectId, Score> bounds{{0, 0.3}, {1, 0.9}, {2, 0.6}};
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    return bounds.at(u);
  };
  const std::span<const Entry> top = heap.Verified(2, fn);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].object, 1u);
  EXPECT_EQ(top[1].object, 2u);
  // Held-out entries still count.
  EXPECT_EQ(heap.size(), 3u);
}

TEST(BoundHeapTest, RestoreReturnsHeldOutEntries) {
  LazyBoundHeap heap;
  heap.Push(0, 0.3);
  heap.Push(1, 0.9);
  std::map<ObjectId, Score> bounds{{0, 0.3}, {1, 0.9}};
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    return bounds.at(u);
  };
  heap.Verified(2, fn);
  heap.Restore();
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.entries().size(), 2u);
  // Bounds may change once restored; the next pop sees the new order.
  bounds[1] = 0.1;
  const std::span<const Entry> top = heap.Verified(1, fn);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].object, 0u);
}

TEST(BoundHeapTest, StaleEntriesRefreshOnPop) {
  LazyBoundHeap heap;
  heap.Push(0, 0.9);  // Cached high...
  heap.Push(1, 0.5);
  std::map<ObjectId, Score> bounds{{0, 0.2}, {1, 0.5}};  // ...now lower.
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    return bounds.at(u);
  };
  const std::span<const Entry> top = heap.Verified(1, fn);
  ASSERT_EQ(top.size(), 1u);
  // Object 1 is the true maximum despite object 0's stale cache.
  EXPECT_EQ(top[0].object, 1u);
  EXPECT_DOUBLE_EQ(top[0].bound, 0.5);
  // The refreshed entry for object 0 stays in the heap.
  heap.Restore();
  EXPECT_EQ(heap.size(), 2u);
}

TEST(BoundHeapTest, RetiredEntriesVanish) {
  LazyBoundHeap heap;
  heap.Push(0, 1.0);
  heap.Push(1, 0.4);
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    if (u == 0) return std::nullopt;  // Retired (the unseen sentinel dies).
    return 0.4;
  };
  const std::span<const Entry> top = heap.Verified(2, fn);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].object, 1u);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(BoundHeapTest, TieBreakByDescendingObjectId) {
  LazyBoundHeap heap;
  heap.Push(3, 0.5);
  heap.Push(9, 0.5);
  heap.Push(1, 0.5);
  const auto fn = [](ObjectId) -> std::optional<Score> { return 0.5; };
  const std::span<const Entry> top = heap.Verified(3, fn);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].object, 9u);
  EXPECT_EQ(top[1].object, 3u);
  EXPECT_EQ(top[2].object, 1u);
}

TEST(BoundHeapTest, UnseenSentinelRanksBelowSeenTies) {
  // A freshly hit object surfaces above `unseen` at an equal bound
  // (Figure 10's step 2).
  LazyBoundHeap heap;
  heap.Push(kUnseenObject, 0.7);
  heap.Push(7, 0.7);
  const auto fn = [](ObjectId) -> std::optional<Score> { return 0.7; };
  const std::span<const Entry> top = heap.Verified(2, fn);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].object, 7u);
  EXPECT_EQ(top[1].object, kUnseenObject);
}

TEST(BoundHeapTest, FewerEntriesThanK) {
  LazyBoundHeap heap;
  heap.Push(0, 0.5);
  const auto fn = [](ObjectId) -> std::optional<Score> { return 0.5; };
  EXPECT_EQ(heap.Verified(5, fn).size(), 1u);
  EXPECT_TRUE(heap.PopUnsettled(5, fn, kNeverFinal).has_value());
}

TEST(BoundHeapTest, PopUnsettledSettlesTheFinalPrefix) {
  LazyBoundHeap heap;
  std::map<ObjectId, Score> bounds{{0, 0.9}, {1, 0.8}, {2, 0.7}, {3, 0.6}};
  std::map<ObjectId, bool> final{{0, true}, {1, false}, {2, true}, {3, true}};
  for (const auto& [u, b] : bounds) heap.Push(u, b);
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    return bounds.at(u);
  };
  const auto is_final = [&](ObjectId u) { return final.at(u); };

  std::optional<Entry> target = heap.PopUnsettled(3, fn, is_final);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->object, 1u);
  ASSERT_EQ(heap.settled().size(), 1u);
  EXPECT_EQ(heap.settled()[0].object, 0u);
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.entries().size(), 4u);

  // Object 1 completes below object 2; the settled prefix survives the
  // Restore and the next pop settles k entries: exact termination.
  heap.Restore();
  bounds[1] = 0.65;
  final[1] = true;
  EXPECT_FALSE(heap.PopUnsettled(3, fn, is_final).has_value());
  ASSERT_EQ(heap.settled().size(), 3u);
  EXPECT_EQ(heap.settled()[0].object, 0u);
  EXPECT_EQ(heap.settled()[1].object, 2u);
  EXPECT_EQ(heap.settled()[2].object, 1u);
  // A wider verified prefix continues below the settled one.
  const std::span<const Entry> top4 = heap.Verified(4, fn);
  ASSERT_EQ(top4.size(), 4u);
  EXPECT_EQ(top4[3].object, 3u);
}

TEST(BoundHeapTest, TiedPushWithHigherIdUnsettles) {
  LazyBoundHeap heap;
  std::map<ObjectId, Score> bounds{{3, 0.5}, {kUnseenObject, 0.5}};
  heap.Push(3, 0.5);
  heap.Push(kUnseenObject, 0.5);
  const auto fn = [&](ObjectId u) -> std::optional<Score> {
    return bounds.at(u);
  };
  const auto is_final = [](ObjectId u) { return u != kUnseenObject; };
  std::optional<Entry> target = heap.PopUnsettled(2, fn, is_final);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->object, kUnseenObject);
  ASSERT_EQ(heap.settled().size(), 1u);

  // A discovery at the sentinel's bound ties the settled entry and wins
  // on ObjectId, so it must rank first from now on.
  bounds[9] = 0.5;
  heap.Push(9, 0.5);
  EXPECT_TRUE(heap.settled().empty());
  EXPECT_EQ(heap.size(), 3u);
  target = heap.PopUnsettled(2, fn, is_final);
  EXPECT_FALSE(target.has_value());
  ASSERT_EQ(heap.settled().size(), 2u);
  EXPECT_EQ(heap.settled()[0].object, 9u);
  EXPECT_EQ(heap.settled()[1].object, 3u);

  // A tie with a lower id ranks below and leaves the prefix alone.
  bounds[1] = 0.5;
  heap.Push(1, 0.5);
  EXPECT_EQ(heap.settled().size(), 2u);
}

// Property test: random settle, push, tie, decay and retire sequences.
// PopUnsettled and Verified must agree with a naive full rescan under the
// library-wide rank order after every step.
TEST(BoundHeapTest, RandomizedAgainstNaive) {
  Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    // Bounds on a coarse grid so exact ties are common.
    const auto draw = [&] {
      return static_cast<double>(rng.UniformInt(9)) / 8.0;
    };
    std::map<ObjectId, double> current;  // Live (not retired) objects.
    std::map<ObjectId, bool> final;
    LazyBoundHeap heap;
    const auto push = [&](ObjectId u, double bound) {
      current[u] = bound;
      final[u] = false;
      heap.Push(u, bound);
    };
    const size_t n = 1 + rng.UniformInt(40);
    for (ObjectId u = 0; u < n; ++u) push(u, draw());
    push(kUnseenObject, draw());
    ObjectId next_id = static_cast<ObjectId>(n);

    const auto fn = [&](ObjectId u) -> std::optional<Score> {
      const auto it = current.find(u);
      if (it == current.end()) return std::nullopt;
      return it->second;
    };
    const auto is_final = [&](ObjectId u) { return final.at(u); };

    for (int step = 0; step < 40; ++step) {
      // Mutate: decay, finalize (bound frozen at an exact score no
      // higher), retire non-final objects, push newcomers (ties likely).
      const size_t mutations = rng.UniformInt(4);
      for (size_t j = 0; j < mutations && !current.empty(); ++j) {
        auto it = current.begin();
        std::advance(it, rng.UniformInt(current.size()));
        const ObjectId u = it->first;
        if (final[u]) continue;
        switch (rng.UniformInt(4)) {
          case 0:
            it->second = std::min(it->second, draw());
            break;
          case 1:
            if (u != kUnseenObject) {
              it->second = std::min(it->second, draw());
              final[u] = true;
            }
            break;
          case 2:
            current.erase(it);
            break;
          default:
            push(next_id++, draw());
            break;
        }
      }

      // Naive expectation: rescan every live object.
      std::vector<Entry> order;
      for (const auto& [u, b] : current) order.push_back(Entry{b, u});
      std::sort(order.begin(), order.end(),
                [](const Entry& a, const Entry& b) {
                  return RanksAbove(a.bound, a.object, b.bound, b.object);
                });
      const size_t k = 1 + rng.UniformInt(6);
      size_t expect_settled = 0;
      std::optional<ObjectId> expect_target;
      while (expect_settled < std::min(k, order.size())) {
        if (!final[order[expect_settled].object]) {
          expect_target = order[expect_settled].object;
          break;
        }
        ++expect_settled;
      }

      const std::optional<Entry> target = heap.PopUnsettled(k, fn, is_final);
      ASSERT_EQ(target.has_value(), expect_target.has_value())
          << "trial " << trial << " step " << step;
      if (target.has_value()) {
        EXPECT_EQ(target->object, *expect_target) << "trial " << trial;
      }
      // The settled prefix may run ahead of this step's walk (settled
      // earlier at a larger k) but is always a rank-order prefix.
      const std::span<const Entry> settled = heap.settled();
      ASSERT_GE(settled.size(), expect_settled) << "trial " << trial;
      ASSERT_LE(settled.size(), order.size());
      for (size_t i = 0; i < settled.size(); ++i) {
        EXPECT_EQ(settled[i].object, order[i].object) << "trial " << trial;
        EXPECT_EQ(settled[i].bound, order[i].bound);
        EXPECT_TRUE(final[settled[i].object]);
      }
      const size_t width = 1 + rng.UniformInt(8);
      const std::span<const Entry> top = heap.Verified(width, fn);
      ASSERT_EQ(top.size(), std::min(width, order.size()));
      for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].object, order[i].object) << "trial " << trial;
        EXPECT_EQ(top[i].bound, order[i].bound);
      }
      // Inspection sees every live entry (retired ones may linger until
      // popped, never the reverse).
      std::map<ObjectId, int> seen;
      for (const Entry& e : heap.entries()) ++seen[e.object];
      for (const auto& [u, b] : current) {
        EXPECT_EQ(seen[u], 1) << "object " << u << " trial " << trial;
      }
      EXPECT_EQ(heap.size(), heap.entries().size());
      heap.Restore();
    }
  }
}

}  // namespace
}  // namespace nc

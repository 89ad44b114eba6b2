#include "core/bound_heap.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/candidate.h"
#include "core/rank_order.h"

namespace nc {
namespace {

using Entry = LazyBoundHeap::Entry;

const auto kNeverFinal = [](const Entry&) { return false; };

TEST(BoundHeapTest, VerifiedStableBounds) {
  LazyBoundHeap heap;
  heap.Push(0, 0.3);
  heap.Push(1, 0.9);
  heap.Push(2, 0.6);
  std::map<ObjectId, Score> bounds{{0, 0.3}, {1, 0.9}, {2, 0.6}};
  const auto fn = [&](const Entry& e) -> std::optional<Score> {
    return bounds.at(e.object);
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
  const auto fn = [&](const Entry& e) -> std::optional<Score> {
    return bounds.at(e.object);
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
  const auto fn = [&](const Entry& e) -> std::optional<Score> {
    return bounds.at(e.object);
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
  const auto fn = [&](const Entry& e) -> std::optional<Score> {
    if (e.object == 0) return std::nullopt;  // Retired (the unseen sentinel dies).
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
  const auto fn = [](const Entry&) -> std::optional<Score> { return 0.5; };
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
  const auto fn = [](const Entry&) -> std::optional<Score> { return 0.7; };
  const std::span<const Entry> top = heap.Verified(2, fn);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].object, 7u);
  EXPECT_EQ(top[1].object, kUnseenObject);
}

TEST(BoundHeapTest, FewerEntriesThanK) {
  LazyBoundHeap heap;
  heap.Push(0, 0.5);
  const auto fn = [](const Entry&) -> std::optional<Score> { return 0.5; };
  EXPECT_EQ(heap.Verified(5, fn).size(), 1u);
  EXPECT_TRUE(heap.PopUnsettled(5, fn, kNeverFinal).has_value());
}

TEST(BoundHeapTest, PopUnsettledSettlesTheFinalPrefix) {
  LazyBoundHeap heap;
  std::map<ObjectId, Score> bounds{{0, 0.9}, {1, 0.8}, {2, 0.7}, {3, 0.6}};
  std::map<ObjectId, bool> final{{0, true}, {1, false}, {2, true}, {3, true}};
  for (const auto& [u, b] : bounds) heap.Push(u, b);
  const auto fn = [&](const Entry& e) -> std::optional<Score> {
    return bounds.at(e.object);
  };
  const auto is_final = [&](const Entry& e) { return final.at(e.object); };

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
  const auto fn = [&](const Entry& e) -> std::optional<Score> {
    return bounds.at(e.object);
  };
  const auto is_final = [](const Entry& e) {
    return e.object != kUnseenObject;
  };
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

    const auto fn = [&](const Entry& e) -> std::optional<Score> {
      const auto it = current.find(e.object);
      if (it == current.end()) return std::nullopt;
      return it->second;
    };
    const auto is_final = [&](const Entry& e) { return final.at(e.object); };

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

// Property test in the engine's own shape: a CandidatePool under F = avg,
// ceilings that only fall (one predicate per step, as a sorted access
// does), sorted hits that discover objects in random id order, random
// probes, and the unseen sentinel retiring once the universe is seen.
// Every pop is checked against a brute-force rank-order oracle that
// recomputes every live bound. Scores sit on a 1/8 grid, so exact ties -
// decided on ObjectId - are common, and a discovery that ties the last
// settled entry with a higher id must un-settle the prefix.
TEST(BoundHeapTest, RandomizedCeilingShiftsAgainstOracle) {
  constexpr size_t kM = 2;
  AverageFunction avg(kM);
  Rng rng(2718);
  size_t unsettles = 0;
  size_t retirements = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const size_t universe = 1 + rng.UniformInt(30);
    CandidatePool pool(kM);
    BoundEvaluator bounds(&avg);
    std::vector<Score> ceilings(kM, kMaxScore);
    LazyBoundHeap heap;
    heap.Push(kUnseenObject, avg.Evaluate(ceilings));
    std::vector<ObjectId> unseen(universe);
    for (ObjectId u = 0; u < universe; ++u) unseen[u] = u;
    rng.Shuffle(&unseen);

    const auto all_seen = [&] { return pool.size() >= universe; };
    const auto bound_fn = [&](const Entry& e) -> std::optional<Score> {
      if (e.object == kUnseenObject) {
        if (all_seen()) return std::nullopt;
        return avg.Evaluate(ceilings);
      }
      return bounds.Current(pool, e.slot, ceilings);
    };
    const auto is_final = [&](const Entry& e) {
      return e.object != kUnseenObject && pool.IsComplete(e.slot);
    };
    // A grid score in [0, cap].
    const auto grid_below = [&](Score cap) {
      const uint64_t steps = static_cast<uint64_t>(cap * 8.0);
      return static_cast<Score>(rng.UniformInt(steps + 1)) / 8.0;
    };

    for (int step = 0; step < 60; ++step) {
      const size_t mutations = rng.UniformInt(3);
      for (size_t j = 0; j < mutations; ++j) {
        const PredicateId i = static_cast<PredicateId>(rng.UniformInt(kM));
        if (rng.UniformInt(3) != 0) {
          // Sorted access on predicate i: the ceiling falls to the hit's
          // score, and the hit is a new object or a seen one not yet
          // read on this list.
          std::vector<uint32_t> open;
          for (uint32_t slot = 0; slot < pool.size(); ++slot) {
            if (!pool.IsEvaluated(slot, i)) open.push_back(slot);
          }
          if (unseen.empty() && open.empty()) continue;
          ceilings[i] = grid_below(ceilings[i]);
          const size_t pick = rng.UniformInt(unseen.size() + open.size());
          if (pick < unseen.size()) {
            const ObjectId u = unseen[pick];
            unseen.erase(unseen.begin() + static_cast<ptrdiff_t>(pick));
            const uint32_t slot = pool.GetOrCreate(u);
            pool.SetScore(slot, i, ceilings[i]);
            const bool was_settled = !heap.settled().empty();
            heap.Push(u, bounds.Upper(pool, slot, ceilings), slot);
            if (was_settled && heap.settled().empty()) ++unsettles;
          } else {
            pool.SetScore(open[pick - unseen.size()], i, ceilings[i]);
          }
        } else if (pool.size() > 0) {
          // Random probe: an exact score no higher than the ceiling it
          // replaces.
          const uint32_t slot =
              static_cast<uint32_t>(rng.UniformInt(pool.size()));
          if (!pool.IsEvaluated(slot, i)) {
            pool.SetScore(slot, i, grid_below(ceilings[i]));
          }
        }
      }

      // Oracle: every live bound recomputed, in rank order.
      std::vector<Entry> order;
      for (uint32_t slot = 0; slot < pool.size(); ++slot) {
        order.push_back(
            Entry{bounds.Current(pool, slot, ceilings), pool.id(slot), slot});
      }
      if (!all_seen()) {
        order.push_back(Entry{avg.Evaluate(ceilings), kUnseenObject});
      }
      std::sort(order.begin(), order.end(),
                [](const Entry& a, const Entry& b) {
                  return RanksAbove(a.bound, a.object, b.bound, b.object);
                });
      const size_t k = 1 + rng.UniformInt(6);
      size_t expect_settled = 0;
      std::optional<ObjectId> expect_target;
      while (expect_settled < std::min(k, order.size())) {
        if (!is_final(order[expect_settled])) {
          expect_target = order[expect_settled].object;
          break;
        }
        ++expect_settled;
      }

      const std::optional<Entry> target =
          heap.PopUnsettled(k, bound_fn, is_final);
      ASSERT_EQ(target.has_value(), expect_target.has_value())
          << "trial " << trial << " step " << step;
      if (target.has_value()) {
        EXPECT_EQ(target->object, *expect_target) << "trial " << trial;
        if (target->object != kUnseenObject) {
          EXPECT_EQ(pool.id(target->slot), target->object);
        }
      }
      const std::span<const Entry> settled = heap.settled();
      ASSERT_GE(settled.size(), expect_settled) << "trial " << trial;
      ASSERT_LE(settled.size(), order.size());
      for (size_t r = 0; r < settled.size(); ++r) {
        EXPECT_EQ(settled[r].object, order[r].object) << "trial " << trial;
        EXPECT_EQ(settled[r].bound, order[r].bound);
      }
      const size_t width = 1 + rng.UniformInt(8);
      const std::span<const Entry> top = heap.Verified(width, bound_fn);
      ASSERT_EQ(top.size(), std::min(width, order.size()));
      for (size_t r = 0; r < top.size(); ++r) {
        EXPECT_EQ(top[r].object, order[r].object) << "trial " << trial;
        EXPECT_EQ(top[r].bound, order[r].bound);
      }
      heap.Restore();
      // After Restore every live entry is back: one per seen object, and
      // the sentinel until it retires (a retired one may linger until
      // popped).
      std::map<ObjectId, int> seen;
      for (const Entry& e : heap.entries()) ++seen[e.object];
      for (uint32_t slot = 0; slot < pool.size(); ++slot) {
        EXPECT_EQ(seen[pool.id(slot)], 1) << "trial " << trial;
      }
      if (!all_seen()) {
        EXPECT_EQ(seen[kUnseenObject], 1);
      }
      if (all_seen() && seen[kUnseenObject] == 0 && step > 0) ++retirements;
      EXPECT_EQ(heap.size(), heap.entries().size());
    }
  }
  // The sequences above must actually reach the edge cases.
  EXPECT_GT(unsettles, 0u);
  EXPECT_GT(retirements, 0u);
}

}  // namespace
}  // namespace nc

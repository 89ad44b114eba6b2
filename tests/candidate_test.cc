#include "core/candidate.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"

namespace nc {
namespace {

TEST(CandidateTest, FreshCandidateHasNothingEvaluated) {
  CandidatePool pool(3);
  const uint32_t c = pool.GetOrCreate(7);
  EXPECT_EQ(pool.id(c), 7u);
  EXPECT_EQ(pool.mask(c), 0u);
  EXPECT_FALSE(pool.IsComplete(c));
  for (PredicateId i = 0; i < 3; ++i) EXPECT_FALSE(pool.IsEvaluated(c, i));
}

TEST(CandidateTest, SetScoreMarksEvaluated) {
  CandidatePool pool(2);
  const uint32_t c = pool.GetOrCreate(0);
  pool.SetScore(c, 1, 0.4);
  EXPECT_TRUE(pool.IsEvaluated(c, 1));
  EXPECT_FALSE(pool.IsEvaluated(c, 0));
  EXPECT_DOUBLE_EQ(pool.scores(c)[1], 0.4);
  EXPECT_EQ(pool.mask(c), 0b10u);
  pool.SetScore(c, 0, 0.9);
  EXPECT_TRUE(pool.IsComplete(c));
}

TEST(CandidateTest, CompleteAtSixtyFourPredicates) {
  CandidatePool pool(64);
  const uint32_t c = pool.GetOrCreate(0);
  for (PredicateId i = 0; i < 63; ++i) pool.SetScore(c, i, 0.5);
  EXPECT_FALSE(pool.IsComplete(c));
  pool.SetScore(c, 63, 0.5);
  EXPECT_TRUE(pool.IsComplete(c));
  EXPECT_EQ(pool.mask(c), ~uint64_t{0});
}

TEST(CandidateTest, PoolGetOrCreateIdempotent) {
  CandidatePool pool(2);
  bool created = false;
  const uint32_t a = pool.GetOrCreate(5, &created);
  EXPECT_TRUE(created);
  pool.SetScore(a, 0, 0.3);
  const uint32_t b = pool.GetOrCreate(5, &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(pool.scores(b)[0], 0.3);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CandidateTest, PoolFind) {
  CandidatePool pool(2);
  EXPECT_EQ(pool.Find(1), CandidatePool::kNoSlot);
  pool.GetOrCreate(1);
  ASSERT_NE(pool.Find(1), CandidatePool::kNoSlot);
  EXPECT_EQ(pool.id(pool.Find(1)), 1u);
  // Ids below and far above the largest seen one are simply unseen.
  EXPECT_EQ(pool.Find(0), CandidatePool::kNoSlot);
  EXPECT_EQ(pool.Find(1u << 20), CandidatePool::kNoSlot);
}

// Slots are creation indices: they, the ids and every stored score
// survive any amount of later growth, in any id order.
TEST(CandidateTest, PoolSlotsStableAcrossGrowth) {
  constexpr size_t kM = 3;
  CandidatePool pool(kM);
  Rng rng(17);
  std::map<ObjectId, uint32_t> slots;
  std::map<ObjectId, std::vector<Score>> expected;
  for (int step = 0; step < 4000; ++step) {
    const ObjectId u = static_cast<ObjectId>(rng.UniformInt(5000));
    bool created = false;
    const uint32_t slot = pool.GetOrCreate(u, &created);
    EXPECT_EQ(created, slots.count(u) == 0);
    if (created) {
      EXPECT_EQ(slot, slots.size());
      slots[u] = slot;
      expected[u].assign(kM, -1.0);
    }
    EXPECT_EQ(slot, slots[u]);
    const PredicateId i = static_cast<PredicateId>(rng.UniformInt(kM));
    if (!pool.IsEvaluated(slot, i)) {
      const Score s = rng.Uniform01();
      pool.SetScore(slot, i, s);
      expected[u][i] = s;
    }
  }
  ASSERT_EQ(pool.size(), slots.size());
  for (const auto& [u, slot] : slots) {
    EXPECT_EQ(pool.Find(u), slot);
    EXPECT_EQ(pool.id(slot), u);
    for (PredicateId i = 0; i < kM; ++i) {
      EXPECT_EQ(pool.IsEvaluated(slot, i), expected[u][i] >= 0.0);
      if (pool.IsEvaluated(slot, i)) {
        EXPECT_EQ(pool.scores(slot)[i], expected[u][i]);
      }
    }
  }
}

TEST(CandidateTest, PoolIteratesInCreationOrder) {
  CandidatePool pool(1);
  pool.GetOrCreate(9);
  pool.GetOrCreate(3);
  pool.GetOrCreate(7);
  pool.GetOrCreate(3);  // Already seen: no new slot.
  std::vector<ObjectId> ids;
  for (uint32_t slot = 0; slot < pool.size(); ++slot) {
    ids.push_back(pool.id(slot));
  }
  EXPECT_EQ(ids, (std::vector<ObjectId>{9, 3, 7}));
}

TEST(BoundEvaluatorTest, UpperSubstitutesCeilings) {
  AverageFunction avg(2);
  BoundEvaluator bounds(&avg);
  CandidatePool pool(2);
  const uint32_t c = pool.GetOrCreate(0);
  pool.SetScore(c, 0, 0.6);
  // p_1 unevaluated: read as the ceiling 0.8 -> avg(0.6, 0.8) = 0.7.
  const std::vector<Score> ceilings{0.5, 0.8};
  EXPECT_DOUBLE_EQ(bounds.Upper(pool, c, ceilings), 0.7);
  EXPECT_DOUBLE_EQ(bounds.Current(pool, c, ceilings), 0.7);
}

TEST(BoundEvaluatorTest, LowerSubstitutesZero) {
  AverageFunction avg(2);
  BoundEvaluator bounds(&avg);
  CandidatePool pool(2);
  const uint32_t c = pool.GetOrCreate(0);
  pool.SetScore(c, 0, 0.6);
  EXPECT_DOUBLE_EQ(bounds.Lower(pool, c), 0.3);
}

TEST(BoundEvaluatorTest, ExactUsesAllScores) {
  MinFunction fmin(2);
  BoundEvaluator bounds(&fmin);
  CandidatePool pool(2);
  const uint32_t c = pool.GetOrCreate(0);
  pool.SetScore(c, 0, 0.6);
  pool.SetScore(c, 1, 0.4);
  EXPECT_DOUBLE_EQ(bounds.Exact(pool, c), 0.4);
  // A complete candidate's current bound is its exact score.
  const std::vector<Score> ceilings{1.0, 1.0};
  EXPECT_DOUBLE_EQ(bounds.Current(pool, c, ceilings), 0.4);
}

TEST(BoundEvaluatorTest, PaperExample7ScoreState) {
  // Example 7 / Figure 5 on Dataset 1 (u1=(0.65,0.9), u2=(0.6,0.8),
  // u3=(0.7,0.7)): after two sa_1 (hitting u3 then u1, so l_1 = 0.65) and
  // one sa_2 (hitting u1, so l_2 = 0.9), the score state under F = min:
  MinFunction fmin(2);
  BoundEvaluator bounds(&fmin);
  CandidatePool pool(2);
  const std::vector<Score> ceilings{0.65, 0.9};

  // u3 has p_1 = 0.7 exactly; p_2 capped at 0.9 -> F-bar = 0.7. Its task
  // is clearly unsatisfied: it can still score as high as 0.7.
  const uint32_t u3 = pool.GetOrCreate(2);
  pool.SetScore(u3, 0, 0.7);
  EXPECT_DOUBLE_EQ(bounds.Upper(pool, u3, ceilings), 0.7);

  // u1 was hit by both streams: complete with exact min(.65,.9) = .65.
  const uint32_t u1 = pool.GetOrCreate(0);
  pool.SetScore(u1, 0, 0.65);
  pool.SetScore(u1, 1, 0.9);
  EXPECT_DOUBLE_EQ(bounds.Exact(pool, u1), 0.65);

  // u2 is unseen: fully ceiling-bounded at min(.65,.9) = .65, so the
  // eventual top-1 score (0.7, u3's) dominates it.
  const uint32_t u2 = pool.GetOrCreate(1);
  EXPECT_DOUBLE_EQ(bounds.Upper(pool, u2, ceilings), 0.65);
}

TEST(BoundEvaluatorTest, UpperNeverBelowExactForMonotoneF) {
  AverageFunction avg(3);
  BoundEvaluator bounds(&avg);
  CandidatePool pool(3);
  const uint32_t c = pool.GetOrCreate(0);
  pool.SetScore(c, 0, 0.2);
  pool.SetScore(c, 1, 0.4);
  const std::vector<Score> ceilings{1.0, 1.0, 0.9};
  const Score upper = bounds.Upper(pool, c, ceilings);
  pool.SetScore(c, 2, 0.5);  // True value below the ceiling.
  EXPECT_LE(bounds.Exact(pool, c), upper);
}

}  // namespace
}  // namespace nc

#include "access/cost_model.h"

#include <gtest/gtest.h>

namespace nc {
namespace {

TEST(CostModelTest, UniformFactory) {
  const CostModel model = CostModel::Uniform(3, 1.0, 10.0);
  EXPECT_EQ(model.num_predicates(), 3u);
  for (PredicateId i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(model.sorted_cost[i], 1.0);
    EXPECT_DOUBLE_EQ(model.random_cost[i], 10.0);
    EXPECT_TRUE(model.has_sorted(i));
    EXPECT_TRUE(model.has_random(i));
  }
  EXPECT_TRUE(model.Validate().ok());
}

TEST(CostModelTest, ImpossibleAccessDetected) {
  const CostModel model({1.0, kImpossibleCost}, {kImpossibleCost, 2.0});
  EXPECT_TRUE(model.has_sorted(0));
  EXPECT_FALSE(model.has_sorted(1));
  EXPECT_FALSE(model.has_random(0));
  EXPECT_TRUE(model.has_random(1));
  EXPECT_TRUE(model.any_sorted());
  EXPECT_TRUE(model.any_random());
  EXPECT_TRUE(model.Validate().ok());
}

TEST(CostModelTest, NoCapabilityAnywhere) {
  const CostModel sorted_only = CostModel::Uniform(2, 1.0, kImpossibleCost);
  EXPECT_TRUE(sorted_only.any_sorted());
  EXPECT_FALSE(sorted_only.any_random());
}

TEST(CostModelTest, ValidateRejectsEmpty) {
  EXPECT_FALSE(CostModel().Validate().ok());
}

TEST(CostModelTest, ValidateRejectsSizeMismatch) {
  EXPECT_FALSE(CostModel({1.0, 1.0}, {1.0}).Validate().ok());
}

TEST(CostModelTest, ValidateRejectsNegativeCost) {
  EXPECT_FALSE(CostModel({-1.0}, {1.0}).Validate().ok());
  EXPECT_FALSE(CostModel({1.0}, {-0.5}).Validate().ok());
}

TEST(CostModelTest, ValidateRejectsNaN) {
  EXPECT_FALSE(
      CostModel({std::nan("")}, {1.0}).Validate().ok());
}

TEST(CostModelTest, ValidateRejectsUnreachablePredicate) {
  // A predicate with neither access type can never be evaluated.
  const CostModel model({kImpossibleCost}, {kImpossibleCost});
  EXPECT_EQ(model.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(CostModelTest, ValidateRejectsNegativeAttributeGroup) {
  CostModel model = CostModel::Uniform(3, 1.0, 1.0);
  model.attribute_groups = {0, 0, 1};
  EXPECT_TRUE(model.Validate().ok());
  model.attribute_groups = {0, -1, 1};
  EXPECT_FALSE(model.Validate().ok());
}

TEST(CostModelTest, ZeroCostIsLegal) {
  // Q2's scenario: random accesses ride along with sorted hits for free.
  const CostModel model = CostModel::Uniform(3, 1.0, 0.0);
  EXPECT_TRUE(model.Validate().ok());
  EXPECT_TRUE(model.has_random(0));
}

TEST(CostModelTest, ToStringReadable) {
  const CostModel model({1.0, 2.0}, {10.0, kImpossibleCost});
  EXPECT_EQ(model.ToString(), "[cs=(1,2) cr=(10,inf)]");
}

}  // namespace
}  // namespace nc

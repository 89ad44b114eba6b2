#include "access/cost_model.h"

#include <sstream>

namespace nc {

namespace {

void AppendCosts(std::ostringstream* os, const std::vector<double>& costs) {
  (*os) << "(";
  for (size_t i = 0; i < costs.size(); ++i) {
    if (i > 0) (*os) << ",";
    if (std::isfinite(costs[i])) {
      (*os) << costs[i];
    } else {
      (*os) << "inf";
    }
  }
  (*os) << ")";
}

}  // namespace

CostModel CostModel::Uniform(size_t num_predicates, double cs, double cr) {
  return CostModel(std::vector<double>(num_predicates, cs),
                   std::vector<double>(num_predicates, cr));
}

bool CostModel::any_sorted() const {
  for (size_t i = 0; i < sorted_cost.size(); ++i) {
    if (has_sorted(static_cast<PredicateId>(i))) return true;
  }
  return false;
}

bool CostModel::any_random() const {
  for (size_t i = 0; i < random_cost.size(); ++i) {
    if (has_random(static_cast<PredicateId>(i))) return true;
  }
  return false;
}

Status CostModel::Validate() const {
  NC_RETURN_IF_ERROR(ValidateStructure());
  for (size_t i = 0; i < sorted_cost.size(); ++i) {
    if (!has_sorted(static_cast<PredicateId>(i)) &&
        !has_random(static_cast<PredicateId>(i))) {
      return Status::InvalidArgument(
          "predicate " + std::to_string(i) +
          " supports neither sorted nor random access");
    }
  }
  return Status::OK();
}

Status CostModel::ValidateStructure() const {
  if (sorted_cost.empty()) {
    return Status::InvalidArgument("cost model has no predicates");
  }
  if (sorted_cost.size() != random_cost.size()) {
    return Status::InvalidArgument(
        "sorted_cost and random_cost sizes differ");
  }
  for (size_t i = 0; i < sorted_cost.size(); ++i) {
    if (std::isnan(sorted_cost[i]) || std::isnan(random_cost[i])) {
      return Status::InvalidArgument("cost is NaN");
    }
    if (sorted_cost[i] < 0.0 || random_cost[i] < 0.0) {
      return Status::InvalidArgument("negative access cost");
    }
  }
  if (!sorted_page_size.empty()) {
    if (sorted_page_size.size() != sorted_cost.size()) {
      return Status::InvalidArgument("sorted_page_size size mismatch");
    }
    for (size_t b : sorted_page_size) {
      if (b == 0) return Status::InvalidArgument("page size must be >= 1");
    }
  }
  if (!attribute_groups.empty() &&
      attribute_groups.size() != sorted_cost.size()) {
    return Status::InvalidArgument("attribute_groups size mismatch");
  }
  for (const int group : attribute_groups) {
    if (group < 0) return Status::InvalidArgument("negative attribute group");
  }
  return Status::OK();
}

std::string CostModel::ToString() const {
  std::ostringstream os;
  os << "[cs=";
  AppendCosts(&os, sorted_cost);
  os << " cr=";
  AppendCosts(&os, random_cost);
  os << "]";
  return os.str();
}

}  // namespace nc

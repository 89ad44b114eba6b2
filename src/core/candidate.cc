#include "core/candidate.h"

namespace nc {

CandidatePool::CandidatePool(size_t num_predicates)
    : num_predicates_(num_predicates),
      full_mask_(num_predicates == 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << num_predicates) - 1) {
  NC_CHECK(num_predicates_ > 0 && num_predicates_ <= 64);
}

uint32_t CandidatePool::GetOrCreate(ObjectId u, bool* created) {
  NC_CHECK(u != kUnseenObject);
  if (u >= index_.size()) index_.resize(size_t{u} + 1, kNoSlot);
  const bool inserted = index_[u] == kNoSlot;
  if (inserted) {
    NC_CHECK(ids_.size() < kNoSlot);
    index_[u] = static_cast<uint32_t>(ids_.size());
    ids_.push_back(u);
    masks_.push_back(0);
    scores_.resize(scores_.size() + num_predicates_, 0.0);
  }
  if (created != nullptr) *created = inserted;
  return index_[u];
}

}  // namespace nc

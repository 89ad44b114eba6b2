// Per-object score state gathered during query processing.
//
// A candidate records which predicates of an object have been determined
// (by a sorted hit or a random probe) and their exact scores. The
// maximal-possible score F-bar (Eq. 3) substitutes every undetermined
// predicate with its ceiling - the last-seen score l_i of the predicate's
// sorted stream (1.0 if the stream was never read).

#ifndef NC_CORE_CANDIDATE_H_
#define NC_CORE_CANDIDATE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/score.h"
#include "scoring/scoring_function.h"

namespace nc {

// Every seen object's score state, as one flat structure of arrays in
// creation order. A candidate is named by its *slot*: its creation index,
// stable for the pool's lifetime. Scores live in one m-strided vector;
// predicates with an unset mask bit have undefined (zero) entries.
//
// ObjectIds index a flat id -> slot table grown to the largest id seen,
// so ids are expected to be dense object indices [0, n) - as every
// SourceSet hands out.
class CandidatePool {
 public:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  explicit CandidatePool(size_t num_predicates);

  // Returns the slot of `u`, creating it (with no evaluated predicates)
  // on first sight. Sets *created accordingly when non-null.
  uint32_t GetOrCreate(ObjectId u, bool* created = nullptr);

  // The slot of `u`, or kNoSlot if it was never seen.
  uint32_t Find(ObjectId u) const {
    return u < index_.size() ? index_[u] : kNoSlot;
  }

  size_t size() const { return ids_.size(); }
  size_t num_predicates() const { return num_predicates_; }

  ObjectId id(uint32_t slot) const { return ids_[slot]; }
  uint64_t mask(uint32_t slot) const { return masks_[slot]; }
  // All m score entries of the slot, evaluated or not.
  std::span<const Score> scores(uint32_t slot) const {
    return std::span<const Score>(scores_).subspan(
        size_t{slot} * num_predicates_, num_predicates_);
  }

  bool IsEvaluated(uint32_t slot, PredicateId i) const {
    return (masks_[slot] & (uint64_t{1} << i)) != 0;
  }
  // True once every one of the m predicates is determined.
  bool IsComplete(uint32_t slot) const {
    return (masks_[slot] & full_mask_) == full_mask_;
  }

  void SetScore(uint32_t slot, PredicateId i, Score s) {
    NC_DCHECK(i < num_predicates_);
    scores_[size_t{slot} * num_predicates_ + i] = s;
    masks_[slot] |= uint64_t{1} << i;
  }

 private:
  size_t num_predicates_;
  uint64_t full_mask_;
  std::vector<ObjectId> ids_;
  std::vector<uint64_t> masks_;
  std::vector<Score> scores_;
  std::vector<uint32_t> index_;
};

// Evaluates F-bounds for pool candidates; owns the scratch buffer so hot
// loops do not allocate.
class BoundEvaluator {
 public:
  explicit BoundEvaluator(const ScoringFunction* scoring)
      : scoring_(scoring), scratch_(scoring->arity()) {
    NC_CHECK(scoring_ != nullptr);
  }

  // Maximal-possible score: undetermined predicate i is read as
  // ceilings[i] (Eq. 3). ceilings.size() must equal the arity.
  Score Upper(const CandidatePool& pool, uint32_t slot,
              std::span<const Score> ceilings) {
    NC_DCHECK(ceilings.size() == scratch_.size());
    return Fill(pool, slot, ceilings.data());
  }

  // Minimal-possible score: undetermined predicates read as 0 (used by
  // the NRA-style baselines).
  Score Lower(const CandidatePool& pool, uint32_t slot) {
    return Fill(pool, slot, nullptr);
  }

  // Exact score of a complete candidate.
  Score Exact(const CandidatePool& pool, uint32_t slot) {
    NC_DCHECK(pool.IsComplete(slot));
    return scoring_->Evaluate(pool.scores(slot));
  }

  // Exact score when complete, else the maximal-possible one.
  Score Current(const CandidatePool& pool, uint32_t slot,
                std::span<const Score> ceilings) {
    return pool.IsComplete(slot) ? Exact(pool, slot)
                                 : Upper(pool, slot, ceilings);
  }

  const ScoringFunction& scoring() const { return *scoring_; }

 private:
  // Evaluates F over the slot's row with undetermined predicate i read as
  // ceilings[i], or as kMinScore when `ceilings` is null. The pick is a
  // bit select, not a branch: which predicates a candidate knows is
  // unpredictable from one call to the next.
  Score Fill(const CandidatePool& pool, uint32_t slot,
             const Score* ceilings) {
    NC_DCHECK(pool.num_predicates() == scratch_.size());
    const std::span<const Score> row = pool.scores(slot);
    const uint64_t mask = pool.mask(slot);
    for (size_t i = 0; i < scratch_.size(); ++i) {
      const uint64_t known = uint64_t{0} - ((mask >> i) & 1);
      const uint64_t fallback = std::bit_cast<uint64_t>(
          ceilings != nullptr ? ceilings[i] : kMinScore);
      scratch_[i] = std::bit_cast<Score>(
          (std::bit_cast<uint64_t>(row[i]) & known) | (fallback & ~known));
    }
    return scoring_->Evaluate(scratch_);
  }

  const ScoringFunction* scoring_;
  std::vector<Score> scratch_;
};

}  // namespace nc

#endif  // NC_CORE_CANDIDATE_H_

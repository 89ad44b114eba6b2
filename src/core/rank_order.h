// The library-wide rank order for (bound, object) pairs.
//
// Every component that ranks objects by maximal-possible score - the
// sequential engine's lazy bound heap, the parallel executor's visible
// top-k, and the brute-force oracle - must break ties identically, or
// the engines drift apart on tie-heavy data (Section 3.1 assumes ties
// away; we make them deterministic instead). The rule:
//   1. higher bound ranks first;
//   2. at equal bounds, any seen object ranks above the virtual unseen
//      sentinel (the paper's Figure 10: a hit object immediately
//      surfaces above `unseen`);
//   3. among seen objects, higher ObjectId ranks first.

#ifndef NC_CORE_RANK_ORDER_H_
#define NC_CORE_RANK_ORDER_H_

#include "common/score.h"

namespace nc {

// True when (bound_a, a) ranks strictly above (bound_b, b). Written
// without branches: the lazy heap's sift loops compare unpredictable
// pairs, where a mispredicted branch costs more than both terms. Adding 1
// wraps the sentinel (the largest id) to 0, below every seen object.
inline bool RanksAbove(Score bound_a, ObjectId a, Score bound_b, ObjectId b) {
  static_assert(static_cast<ObjectId>(kUnseenObject + 1) == 0);
  const ObjectId tie_a = a + 1;
  const ObjectId tie_b = b + 1;
  const bool higher = bound_a > bound_b;
  const bool equal = bound_a == bound_b;
  return higher | (equal & (tie_a > tie_b));
}

}  // namespace nc

#endif  // NC_CORE_RANK_ORDER_H_

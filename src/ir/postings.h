// Time-aware postings: the entry type of the temporal inverted file and of
// every division-level inverted index.

#ifndef IRHINT_IR_POSTINGS_H_
#define IRHINT_IR_POSTINGS_H_

#include <cstdint>
#include <vector>

#include "data/object.h"
#include "hint/hint.h"  // StoredTime

namespace irhint {

/// \brief One <o.id, [o.t_st, o.t_end]> entry of a time-aware postings list.
/// Lists are kept sorted by object id (the classic IR layout enabling
/// merge-style intersections).
struct Posting {
  ObjectId id = 0;
  StoredTime st = 0;
  StoredTime end = 0;
};

using PostingsList = std::vector<Posting>;

/// \brief Id-only postings entry (the size variant's division index).
struct IdEntry {
  ObjectId id = 0;
};

/// \brief True iff the posting's interval overlaps q.
inline bool PostingOverlaps(const Posting& p, const Interval& q) {
  return p.st <= q.end && q.st <= p.end;
}

}  // namespace irhint

#endif  // IRHINT_IR_POSTINGS_H_

// Expected answers computed apart from the program, and the checks that
// hold a protocol reply against them.
//
// The oracle keeps its own per-element lists of object ids over the
// generated objects. A Boolean answer is every object that holds the
// query's least frequent element, whose closed interval overlaps the
// query's and whose description contains every query element. A ranked
// answer scores every overlapping object holding at least one query
// element by the sum of ImpactScore(e, end) over the query elements it
// holds, and orders the hits by ScoredBetter. Neither goes through an
// index, NaiveScan or TopKOracle.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/object.h"

namespace perfbench {

using irhint::ElementId;
using irhint::Object;
using irhint::ObjectId;
using irhint::Query;
using irhint::ScoredHit;

class Oracle {
 public:
  /// `objects[i].id` must equal i (the generator's dense ids).
  explicit Oracle(const std::vector<Object>& objects);

  /// Ids below `id_limit` matching `query`, ascending.
  std::vector<ObjectId> Boolean(const Query& query, ObjectId id_limit) const;

  /// Top `k` hits below `id_limit` under the disjunctive impact sum.
  std::vector<ScoredHit> TopK(const Query& query, uint32_t k,
                              ObjectId id_limit) const;

  /// Postings an exhaustive scorer with an exact time filter reads: the
  /// (object, element) pairs with the object overlapping the query and
  /// holding the element.
  uint64_t OverlappingPostings(const Query& query) const;

  /// Ids below `id_limit` whose description holds `element`, ascending.
  std::vector<ObjectId> Holders(ElementId element, ObjectId id_limit) const;

  /// Number of objects holding `element` (0 for unknown elements).
  size_t Frequency(ElementId element) const {
    return element < lists_.size() ? lists_[element].size() : 0;
  }

 private:
  const std::vector<Object>& objects_;
  std::vector<std::vector<ObjectId>> lists_;
};

/// Parse "OK <n> <id> ..." into ids; false unless the line is well formed
/// and carries exactly n ids.
bool ParseIdReply(std::string_view reply, std::vector<ObjectId>* ids);

/// The reply lists exactly `expected`, in order.
bool CheckIds(std::string_view reply, const std::vector<ObjectId>& expected);

/// Queries during ingest: the reply must be `base` merged with the first p
/// ids of `held` (both ascending, every held id above every base id) for a
/// p whose held ids cover every id below `acked_limit` and none at or above
/// `sent_limit`.
bool CheckIngestIds(std::string_view reply, const std::vector<ObjectId>& base,
                    const std::vector<ObjectId>& held, ObjectId acked_limit,
                    ObjectId sent_limit);

/// The reply lists exactly `expected` as "id:score" pairs, in order.
bool CheckHits(std::string_view reply, const std::vector<ScoredHit>& expected);

/// The protocol reply to a malformed request must be an error line.
inline bool IsErrorReply(std::string_view reply) {
  return reply.substr(0, 4) == "ERR ";
}

/// Feed the checks above replies with a dropped, an extra and a misordered
/// id (and a wrong score); empty on success, else what slipped through.
std::string SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

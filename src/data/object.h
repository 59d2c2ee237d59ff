// Core value types of the temporal IR data model (Section 2.1 of the paper):
// time intervals, data objects, and time-travel IR queries.

#ifndef IRHINT_DATA_OBJECT_H_
#define IRHINT_DATA_OBJECT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace irhint {

/// \brief Object identifier. Objects are assigned dense, increasing ids.
using ObjectId = uint32_t;

/// \brief Identifier of a descriptive element in the global dictionary D.
using ElementId = uint32_t;

/// \brief Exclusive upper bound on element ids accepted at every ingress
/// (ValidateObject) and decode boundary (WAL records, snapshots).
/// Dictionary ids are dense, so the per-element frequency tables are
/// allocated out to the largest id seen; without a ceiling, one hostile id
/// in an otherwise CRC-valid record forces a multi-gigabyte resize. 2^28
/// elements (a 2 GiB table) is far beyond any real dictionary.
inline constexpr ElementId kElementIdLimit = 1u << 28;

/// \brief A discrete time point. The raw (application) domain can be any
/// range of non-negative integers; HINT-based indexes rescale it internally.
using Time = uint64_t;

/// \brief Sentinel id used for tombstoned (logically deleted) entries.
inline constexpr ObjectId kTombstoneId = static_cast<ObjectId>(-1);

/// \brief Closed time interval [st, end] with st <= end.
struct Interval {
  Time st = 0;
  Time end = 0;

  Interval() = default;
  Interval(Time s, Time e) : st(s), end(e) {}

  bool operator==(const Interval& other) const = default;

  /// \brief Duration as number of covered time points (end - st + 1).
  uint64_t Length() const { return end - st + 1; }
};

/// \brief The Overlap predicate of Section 2.1: intervals share >= 1 point.
inline bool Overlaps(const Interval& a, const Interval& b) {
  return a.st <= b.end && b.st <= a.end;
}

/// \brief True iff time point t lies inside interval i.
inline bool Contains(const Interval& i, Time t) {
  return i.st <= t && t <= i.end;
}

/// \brief A data object <id, [t_st, t_end], d>: identifier, lifespan and a
/// set of descriptive elements (set semantics; `elements` is sorted and
/// duplicate-free).
struct Object {
  ObjectId id = 0;
  Interval interval;
  std::vector<ElementId> elements;

  Object() = default;
  Object(ObjectId object_id, Interval iv, std::vector<ElementId> elems)
      : id(object_id), interval(iv), elements(std::move(elems)) {}

  /// \brief True iff the (sorted) description contains element e.
  bool ContainsElement(ElementId e) const;

  /// \brief True iff the description contains every element of the (sorted)
  /// query description.
  bool ContainsAll(const std::vector<ElementId>& query_elements) const;
};

/// \brief One ranked-retrieval result: an object id plus its accumulated
/// impact score. Ranked results are ordered by (score desc, id asc) — the
/// id tie-break is what makes top-k answers deterministic across index
/// kinds, shard layouts and traversal orders.
struct ScoredHit {
  ObjectId id = 0;
  uint64_t score = 0;

  bool operator==(const ScoredHit& other) const = default;
};

/// \brief The ranked total order: higher score first, ties by ascending id.
inline bool ScoredBetter(const ScoredHit& a, const ScoredHit& b) {
  return a.score != b.score ? a.score > b.score : a.id < b.id;
}

/// \brief A time-travel IR query q = <[t_st, t_end], d> (Definition 2.1).
struct Query {
  Interval interval;
  std::vector<ElementId> elements;

  Query() = default;
  Query(Interval iv, std::vector<ElementId> elems)
      : interval(iv), elements(std::move(elems)) {}
};

/// \brief The one validity rule for an object's lifespan and description,
/// applied where objects enter (line protocol, engine, DurableIndex before
/// it logs) and where they are read back (WAL replay), so the log never
/// holds a record its own reader rejects. Queries obey the same rule.
inline Status ValidateObject(const Interval& interval,
                             const std::vector<ElementId>& elements) {
  if (interval.st > interval.end) {
    return Status::InvalidArgument("interval start exceeds end");
  }
  for (const ElementId e : elements) {
    if (e >= kElementIdLimit) {
      return Status::InvalidArgument("element id " + std::to_string(e) +
                                     " is out of range");
    }
  }
  return Status::OK();
}

inline Status ValidateObject(const Object& object) {
  return ValidateObject(object.interval, object.elements);
}

inline bool Object::ContainsElement(ElementId e) const {
  // Descriptions are short on average; binary search over the sorted vector.
  size_t lo = 0, hi = elements.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (elements[mid] < e) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < elements.size() && elements[lo] == e;
}

inline bool Object::ContainsAll(
    const std::vector<ElementId>& query_elements) const {
  // Merge over two sorted vectors.
  size_t i = 0;
  for (ElementId e : query_elements) {
    while (i < elements.size() && elements[i] < e) ++i;
    if (i == elements.size() || elements[i] != e) return false;
  }
  return true;
}

}  // namespace irhint

#endif  // IRHINT_DATA_OBJECT_H_

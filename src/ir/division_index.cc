#include "ir/division_index.h"

#include <algorithm>

namespace irhint {

namespace {

// Checks the temporal conditions required by `mode` (Algorithm 5's
// per-division variants of Algorithm 1, line 5).
inline bool PassesMode(const Posting& p, const Interval& q, CheckMode mode) {
  switch (mode) {
    case CheckMode::kBoth:
      return p.st <= q.end && q.st <= p.end;
    case CheckMode::kStartOnly:
      return q.st <= p.end;
    case CheckMode::kEndOnly:
      return p.st <= q.end;
    case CheckMode::kNone:
      return true;
  }
  return true;
}

// Narrows `candidates` (sorted, tombstone-free; they may live in
// scratch->candidates, never in scratch->next) by each list of `elements`
// in turn through the intersection kernel, and appends the survivors to
// out. The last intersection writes straight into out.
template <typename Entry>
void IntersectElements(const DivisionPostings<Entry>& postings,
                       std::span<const ObjectId> candidates,
                       std::span<const ElementId> elements,
                       DivisionQueryScratch* scratch,
                       std::vector<ObjectId>* out) {
  if (elements.empty()) {
    out->insert(out->end(), candidates.begin(), candidates.end());
    return;
  }
  std::vector<ObjectId>* spare = &scratch->next;
  std::vector<ObjectId>* other = &scratch->candidates;
  for (size_t i = 0; i < elements.size(); ++i) {
    if (candidates.empty()) return;
    const SplitList<Entry> list = postings.List(elements[i]);
    if (list.size() == 0) return;
    const bool last = i + 1 == elements.size();
    std::vector<ObjectId>* dst = last ? out : spare;
    if (!last) dst->clear();
    const size_t scanned =
        IntersectCandidates(candidates, list, postings.CanProbe(), dst);
    if (scratch->count) {
      ++scratch->counters.intersections_performed;
      scratch->counters.postings_scanned += scanned;
    }
    candidates = *dst;
    std::swap(spare, other);
  }
}

}  // namespace

DivisionQueryScratch& DivisionQueryScratch::ForQuery(bool count) {
  thread_local DivisionQueryScratch scratch;
  scratch.count = count;
  scratch.counters = QueryCounters{};
  return scratch;
}

void DivisionTif::Add(ObjectId id, const Interval& interval,
                      const std::vector<ElementId>& elements) {
  const Posting posting{id, static_cast<StoredTime>(interval.st),
                        static_cast<StoredTime>(interval.end)};
  postings_.Add(posting, elements);
}

void DivisionTif::Query(const std::vector<ElementId>& elements,
                        const Interval& q, CheckMode mode,
                        DivisionQueryScratch* scratch,
                        std::vector<ObjectId>* out) const {
  // Temporal filter over the least (globally) frequent element's list.
  std::vector<ObjectId>& candidates = scratch->candidates;
  candidates.clear();
  const SplitList<Posting> first = postings_.List(elements[0]);
  first.ForEachLive([&](const Posting& p) {
    if (PassesMode(p, q, mode)) candidates.push_back(p.id);
  });
  if (scratch->count) {
    ++scratch->counters.divisions_visited;
    scratch->counters.postings_scanned += first.size();
    scratch->counters.candidates_verified += candidates.size();
  }
  // Intersect with the remaining lists of this division (Algorithm 1 in
  // merge fashion, or Algorithm 3's binary search, or a candidate bitmap;
  // the kernel chooses per list).
  IntersectElements(postings_, candidates,
                    std::span<const ElementId>(elements).subspan(1), scratch,
                    out);
}

void DivisionIdIndex::Intersect(const std::vector<ObjectId>& sorted_candidates,
                                const std::vector<ElementId>& elements,
                                DivisionQueryScratch* scratch,
                                std::vector<ObjectId>* out) const {
  if (scratch->count) {
    ++scratch->counters.divisions_visited;
    scratch->counters.candidates_verified += sorted_candidates.size();
  }
  IntersectElements(postings_, sorted_candidates, elements, scratch, out);
}

void DivisionIdIndex::IntersectLists(const std::vector<ElementId>& elements,
                                     DivisionQueryScratch* scratch,
                                     std::vector<ObjectId>* out) const {
  std::vector<ObjectId>& candidates = scratch->candidates;
  candidates.clear();
  const SplitList<IdEntry> first = postings_.List(elements[0]);
  first.ForEachLive(
      [&](const IdEntry& entry) { candidates.push_back(entry.id); });
  if (scratch->count) {
    ++scratch->counters.divisions_visited;
    scratch->counters.postings_scanned += first.size();
  }
  IntersectElements(postings_, candidates,
                    std::span<const ElementId>(elements).subspan(1), scratch,
                    out);
}

}  // namespace irhint

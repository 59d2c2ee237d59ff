#include "checks.h"

#include <algorithm>
#include <charconv>

#include "rank/scored_posting.h"

namespace perfbench {

namespace {

bool Meet(const irhint::Interval& a, const irhint::Interval& b) {
  return a.st <= b.end && b.st <= a.end;
}

/// Every element of `query` (sorted) in `description` (sorted).
bool HoldsAll(const std::vector<ElementId>& description,
              const std::vector<ElementId>& query) {
  return std::includes(description.begin(), description.end(), query.begin(),
                       query.end());
}

bool Holds(const std::vector<ElementId>& description, ElementId e) {
  return std::binary_search(description.begin(), description.end(), e);
}

/// Reads one unsigned number at `pos`; advances `pos` past it.
template <typename T>
bool ReadNumber(std::string_view s, size_t* pos, T* out) {
  const char* begin = s.data() + *pos;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || ptr == begin) return false;
  *pos = static_cast<size_t>(ptr - s.data());
  return true;
}

bool Expect(std::string_view s, size_t* pos, char c) {
  if (*pos >= s.size() || s[*pos] != c) return false;
  ++*pos;
  return true;
}

/// "OK <n>" prefix; leaves `pos` after n.
bool ReadHeader(std::string_view reply, size_t* pos, size_t* n) {
  if (reply.substr(0, 3) != "OK ") return false;
  *pos = 3;
  return ReadNumber(reply, pos, n);
}

bool AtLineEnd(std::string_view reply, size_t pos) {
  return pos == reply.size() || (pos + 1 == reply.size() && reply[pos] == '\n');
}

}  // namespace

Oracle::Oracle(const std::vector<Object>& objects) : objects_(objects) {
  for (const Object& object : objects) {
    for (const ElementId e : object.elements) {
      if (e >= lists_.size()) lists_.resize(static_cast<size_t>(e) + 1);
      lists_[e].push_back(object.id);
    }
  }
}

std::vector<ObjectId> Oracle::Boolean(const Query& query,
                                      ObjectId id_limit) const {
  std::vector<ObjectId> out;
  if (query.elements.empty()) return out;
  // Scan the holders of the query's least frequent element.
  ElementId scan = query.elements[0];
  for (const ElementId e : query.elements) {
    if (Frequency(e) < Frequency(scan)) scan = e;
  }
  if (Frequency(scan) == 0) return out;
  std::vector<ElementId> sorted = query.elements;
  std::sort(sorted.begin(), sorted.end());
  for (const ObjectId id : lists_[scan]) {
    if (id >= id_limit) break;
    const Object& object = objects_[id];
    if (Meet(object.interval, query.interval) &&
        HoldsAll(object.elements, sorted)) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<ScoredHit> Oracle::TopK(const Query& query, uint32_t k,
                                    ObjectId id_limit) const {
  std::vector<ObjectId> candidates;
  for (const ElementId e : query.elements) {
    if (e >= lists_.size()) continue;
    for (const ObjectId id : lists_[e]) {
      if (id >= id_limit) break;
      if (Meet(objects_[id].interval, query.interval)) {
        candidates.push_back(id);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<ElementId> elements = query.elements;
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  std::vector<ScoredHit> hits;
  hits.reserve(candidates.size());
  for (const ObjectId id : candidates) {
    const Object& object = objects_[id];
    uint64_t score = 0;
    for (const ElementId e : elements) {
      if (Holds(object.elements, e)) {
        score += irhint::ImpactScore(e, object.interval.end);
      }
    }
    hits.push_back(ScoredHit{id, score});
  }
  std::sort(hits.begin(), hits.end(), irhint::ScoredBetter);
  if (hits.size() > k) hits.resize(k);
  return hits;
}

uint64_t Oracle::OverlappingPostings(const Query& query) const {
  uint64_t postings = 0;
  for (const ElementId e : query.elements) {
    if (e >= lists_.size()) continue;
    for (const ObjectId id : lists_[e]) {
      if (Meet(objects_[id].interval, query.interval)) ++postings;
    }
  }
  return postings;
}

std::vector<ObjectId> Oracle::Holders(ElementId element,
                                      ObjectId id_limit) const {
  std::vector<ObjectId> out;
  if (element >= lists_.size()) return out;
  for (const ObjectId id : lists_[element]) {
    if (id >= id_limit) break;
    out.push_back(id);
  }
  return out;
}

bool ParseIdReply(std::string_view reply, std::vector<ObjectId>* ids) {
  ids->clear();
  size_t pos = 0;
  size_t n = 0;
  if (!ReadHeader(reply, &pos, &n)) return false;
  ids->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ObjectId id = 0;
    if (!Expect(reply, &pos, ' ') || !ReadNumber(reply, &pos, &id)) {
      return false;
    }
    ids->push_back(id);
  }
  return AtLineEnd(reply, pos);
}

bool CheckIds(std::string_view reply, const std::vector<ObjectId>& expected) {
  std::vector<ObjectId> ids;
  return ParseIdReply(reply, &ids) && ids == expected;
}

bool CheckIngestIds(std::string_view reply, const std::vector<ObjectId>& base,
                    const std::vector<ObjectId>& held, ObjectId acked_limit,
                    ObjectId sent_limit) {
  std::vector<ObjectId> ids;
  if (!ParseIdReply(reply, &ids) || ids.size() < base.size()) return false;
  if (!std::equal(base.begin(), base.end(), ids.begin())) return false;
  const size_t p = ids.size() - base.size();
  if (p > held.size() ||
      !std::equal(held.begin(), held.begin() + static_cast<ptrdiff_t>(p),
                  ids.begin() + static_cast<ptrdiff_t>(base.size()))) {
    return false;
  }
  // Visible prefix: every acknowledged insert, nothing not yet sent.
  if (p < held.size() && held[p] < acked_limit) return false;
  if (p > 0 && held[p - 1] >= sent_limit) return false;
  return true;
}

bool CheckHits(std::string_view reply, const std::vector<ScoredHit>& expected) {
  size_t pos = 0;
  size_t n = 0;
  if (!ReadHeader(reply, &pos, &n) || n != expected.size()) return false;
  for (const ScoredHit& hit : expected) {
    ObjectId id = 0;
    uint64_t score = 0;
    if (!Expect(reply, &pos, ' ') || !ReadNumber(reply, &pos, &id) ||
        !Expect(reply, &pos, ':') || !ReadNumber(reply, &pos, &score)) {
      return false;
    }
    if (id != hit.id || score != hit.score) return false;
  }
  return AtLineEnd(reply, pos);
}

std::string SelfTest() {
  const std::vector<ObjectId> want = {3, 5, 9};
  if (!CheckIds("OK 3 3 5 9\n", want)) return "correct id reply rejected";
  if (CheckIds("OK 2 3 9\n", want)) return "dropped id accepted";
  if (CheckIds("OK 4 3 5 7 9\n", want)) return "extra id accepted";
  if (CheckIds("OK 3 5 3 9\n", want)) return "misordered ids accepted";
  if (CheckIds("OK 3 3 5\n", want)) return "short reply accepted";
  if (CheckIds("OK 0\n", want)) return "empty reply accepted";

  // Ingest prefix: base {1,2}, held {10,12,14}; acked below 12, sent
  // below 14, so {1,2,10} and {1,2,10,12} pass.
  const std::vector<ObjectId> base = {1, 2};
  const std::vector<ObjectId> held = {10, 12, 14};
  if (!CheckIngestIds("OK 3 1 2 10\n", base, held, 12, 14) ||
      !CheckIngestIds("OK 4 1 2 10 12\n", base, held, 12, 14)) {
    return "valid ingest prefix rejected";
  }
  if (CheckIngestIds("OK 2 1 2\n", base, held, 12, 14)) {
    return "acknowledged insert missing from reply accepted";
  }
  if (CheckIngestIds("OK 5 1 2 10 12 14\n", base, held, 12, 14)) {
    return "unsent insert in reply accepted";
  }
  if (CheckIngestIds("OK 3 1 2 12\n", base, held, 12, 14)) {
    return "gap in ingest prefix accepted";
  }
  if (CheckIngestIds("OK 3 2 1 10\n", base, held, 12, 14)) {
    return "misordered ingest reply accepted";
  }

  const std::vector<ScoredHit> hits = {{7, 40}, {2, 31}, {4, 31}};
  if (!CheckHits("OK 3 7:40 2:31 4:31\n", hits)) {
    return "correct top-k rejected";
  }
  if (CheckHits("OK 2 7:40 2:31\n", hits)) return "dropped hit accepted";
  if (CheckHits("OK 3 7:40 4:31 2:31\n", hits)) {
    return "misordered tie accepted";
  }
  if (CheckHits("OK 3 7:40 2:30 4:31\n", hits)) return "wrong score accepted";
  if (CheckHits("OK 4 7:40 2:31 4:31 5:1\n", hits)) return "extra hit accepted";
  return "";
}

}  // namespace perfbench

#include "ir/intersect.h"

#include <algorithm>
#include <cstdint>

namespace irhint {

void IntersectMerge(const std::vector<ObjectId>& a,
                    const std::vector<ObjectId>& b,
                    std::vector<ObjectId>* out) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == kTombstoneId) {
      ++i;
      continue;
    }
    if (b[j] == kTombstoneId) {
      ++j;
      continue;
    }
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

namespace {

// Grow-only bit buffer of the bitmap method, one per thread so concurrent
// queries never share it. Every word is zero between calls: a call sets
// one bit per candidate and clears exactly the words it set before it
// returns. A buffer per call would allocate on every intersection.
thread_local std::vector<uint64_t> t_candidate_bits;

template <typename Entry>
const Entry* LowerBound(const Entry* first, const Entry* last, ObjectId id) {
  return std::lower_bound(
      first, last, id,
      [](const Entry& entry, ObjectId v) { return entry.id < v; });
}

// Binary-searches each candidate in the core run, then in the delta run.
// Candidates ascend, so each search starts where the previous one ended.
template <typename Entry>
void IntersectProbe(std::span<const ObjectId> candidates,
                    const SplitList<Entry>& list, std::vector<ObjectId>* out) {
  const Entry* core = list.core.data();
  const Entry* const core_end = core + list.core.size();
  const Entry* delta = list.delta.data();
  const Entry* const delta_end = delta + list.delta.size();
  for (const ObjectId id : candidates) {
    core = LowerBound(core, core_end, id);
    if (core != core_end && core->id == id) {
      out->push_back(id);
      continue;
    }
    delta = LowerBound(delta, delta_end, id);
    if (delta != delta_end && delta->id == id) out->push_back(id);
  }
}

// One bit per candidate over [front, back], then a branch-free test of
// every list id: an id outside the span (tombstones included) clamps to
// the sentinel bit just past it, which is never set.
template <typename Entry>
void IntersectBitmap(std::span<const ObjectId> candidates,
                     const SplitList<Entry>& list, std::vector<ObjectId>* out) {
  const uint64_t base = candidates.front();
  const uint64_t sentinel = uint64_t{candidates.back()} - base + 1;
  std::vector<uint64_t>& buffer = t_candidate_bits;
  const size_t words = static_cast<size_t>(sentinel / 64) + 1;
  if (buffer.size() < words) buffer.resize(words, 0);
  uint64_t* const bits = buffer.data();
  for (const ObjectId id : candidates) {
    const uint64_t off = id - base;
    bits[off / 64] |= uint64_t{1} << (off % 64);
  }

  // Every id is written at dst[n] and kept by advancing n on a hit. The
  // lists are duplicate-free, so hits never exceed `cap`; a run is still
  // cut into chunks that cannot overrun dst even if that were violated.
  const size_t cap = std::min(candidates.size(), list.size());
  const size_t old = out->size();
  out->resize(old + cap + 1);
  ObjectId* const dst = out->data() + old;
  size_t n = 0;
  for (const std::span<const Entry> run : {list.core, list.delta}) {
    size_t i = 0;
    while (i < run.size() && n < cap) {
      const size_t stop = std::min(run.size(), i + (cap - n) + 1);
      for (; i < stop; ++i) {
        const ObjectId id = run[i].id;
        uint64_t off = id - base;
        off = off < sentinel ? off : sentinel;
        dst[n] = id;
        n += (bits[off / 64] >> (off % 64)) & 1;
      }
    }
  }
  out->resize(old + n);
  for (const ObjectId id : candidates) bits[(id - base) / 64] = 0;
}

template <typename Entry>
void IntersectLinear(std::span<const ObjectId> candidates,
                     const SplitList<Entry>& list, std::vector<ObjectId>* out) {
  if (candidates.empty()) return;
  size_t c = 0;
  for (const std::span<const Entry> run : {list.core, list.delta}) {
    for (const Entry& entry : run) {
      const ObjectId id = entry.id;
      if (id == kTombstoneId) continue;
      while (candidates[c] < id) {
        if (++c == candidates.size()) return;
      }
      if (candidates[c] == id) {
        out->push_back(id);
        if (++c == candidates.size()) return;
      }
    }
  }
}

}  // namespace

IntersectMethod ChooseIntersectMethod(std::span<const ObjectId> candidates,
                                      size_t list_size,
                                      bool list_tombstone_free) {
  if (list_tombstone_free && list_size > 16 * candidates.size()) {
    return IntersectMethod::kProbe;
  }
  if (!candidates.empty()) {
    const uint64_t span_words =
        (uint64_t{candidates.back()} - candidates.front()) / 64 + 1;
    if (span_words <= 4 * (uint64_t{list_size} + candidates.size())) {
      return IntersectMethod::kBitmap;
    }
  }
  return IntersectMethod::kMerge;
}

template <typename Entry>
size_t IntersectCandidates(std::span<const ObjectId> candidates,
                           const SplitList<Entry>& list,
                           bool list_tombstone_free,
                           std::vector<ObjectId>* out) {
  switch (ChooseIntersectMethod(candidates, list.size(),
                                list_tombstone_free)) {
    case IntersectMethod::kProbe:
      IntersectProbe(candidates, list, out);
      return candidates.size();
    case IntersectMethod::kBitmap:
      IntersectBitmap(candidates, list, out);
      return list.size();
    case IntersectMethod::kMerge:
      break;
  }
  IntersectLinear(candidates, list, out);
  return list.size();
}

template size_t IntersectCandidates<Posting>(std::span<const ObjectId>,
                                             const SplitList<Posting>&, bool,
                                             std::vector<ObjectId>*);
template size_t IntersectCandidates<IdEntry>(std::span<const ObjectId>,
                                             const SplitList<IdEntry>&, bool,
                                             std::vector<ObjectId>*);

void IntersectBinary(const std::vector<ObjectId>& candidates,
                     const std::vector<ObjectId>& b,
                     std::vector<ObjectId>* out) {
  for (ObjectId id : candidates) {
    if (id == kTombstoneId) continue;
    if (std::binary_search(b.begin(), b.end(), id)) out->push_back(id);
  }
}

void IntersectGalloping(const std::vector<ObjectId>& a,
                        const std::vector<ObjectId>& b,
                        std::vector<ObjectId>* out) {
  const std::vector<ObjectId>& small = a.size() <= b.size() ? a : b;
  const std::vector<ObjectId>& large = a.size() <= b.size() ? b : a;
  size_t pos = 0;
  for (ObjectId id : small) {
    if (id == kTombstoneId) continue;
    // Gallop: double the step until we pass id, then binary search the gap.
    size_t step = 1;
    size_t hi = pos;
    while (hi < large.size() && large[hi] < id) {
      pos = hi;
      hi += step;
      step <<= 1;
    }
    hi = std::min(hi + 1, large.size());
    const auto it = std::lower_bound(large.begin() + pos, large.begin() + hi,
                                     id);
    pos = static_cast<size_t>(it - large.begin());
    if (pos < large.size() && large[pos] == id) {
      out->push_back(id);
      ++pos;
    }
  }
}

bool SortedContains(const std::vector<ObjectId>& sorted, ObjectId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

}  // namespace irhint

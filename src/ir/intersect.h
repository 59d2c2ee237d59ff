// Sorted-list intersection kernels.
//
// All inputs are sorted by object id; tombstoned entries (id ==
// kTombstoneId) are skipped in place — tombstoning overwrites the id but
// never moves entries, so the live subsequence of a list stays sorted.
// Caveat: the search-based kernels (IntersectBinary, IntersectGalloping,
// SortedContains) binary-search the probed side, which is only sound while
// that side is tombstone-free; use the merge kernel otherwise.
//
// IntersectCandidates is the kernel every index query runs: it narrows a
// candidate set by one element's postings list and picks binary probing,
// a candidate bitmap or a linear merge from the sizes it sees. The
// two-vector kernels (merge, binary search, galloping) remain for the
// ablation bench, which contrasts them with it.

#ifndef IRHINT_IR_INTERSECT_H_
#define IRHINT_IR_INTERSECT_H_

#include <span>
#include <vector>

#include "data/object.h"
#include "ir/postings.h"

namespace irhint {

/// \brief An element's id-sorted postings list, handed over in two runs:
/// a division's read-optimized core range, then its delta list. Every live
/// id of `delta` exceeds every live id of `core` (ids only grow), so the
/// concatenation is id-sorted. Entry exposes an ObjectId `id` field.
template <typename Entry>
struct SplitList {
  std::span<const Entry> core;
  std::span<const Entry> delta;

  /// \brief Stored entries, tombstones included.
  size_t size() const { return core.size() + delta.size(); }

  /// \brief fn(const Entry&) for every live entry, in id order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const std::span<const Entry> run : {core, delta}) {
      for (const Entry& entry : run) {
        if (entry.id != kTombstoneId) fn(entry);
      }
    }
  }
};

enum class IntersectMethod { kProbe, kBitmap, kMerge };

/// \brief The method IntersectCandidates uses for these sizes:
///  * kProbe when the list is tombstone-free and more than 16x the
///    candidates (binary search per candidate, Algorithm 3 style);
///  * kBitmap when the candidates' id span, in 64-bit words, is at most
///    4 x (list + candidates) (so the bitmap costs at most 32 B per entry);
///  * kMerge otherwise (Algorithm 1's merge fashion).
IntersectMethod ChooseIntersectMethod(std::span<const ObjectId> candidates,
                                      size_t list_size,
                                      bool list_tombstone_free);

/// \brief Appends candidates ∩ list to out, in id order. `candidates` must
/// be strictly increasing and tombstone-free; `list` is id-sorted over its
/// live entries, and `list_tombstone_free` states that it holds no
/// tombstones (binary probing needs the raw order). Returns the postings
/// examined under the paper's cost accounting: the candidate count when
/// probing, the list length otherwise.
template <typename Entry>
size_t IntersectCandidates(std::span<const ObjectId> candidates,
                           const SplitList<Entry>& list,
                           bool list_tombstone_free,
                           std::vector<ObjectId>* out);

extern template size_t IntersectCandidates<Posting>(
    std::span<const ObjectId>, const SplitList<Posting>&, bool,
    std::vector<ObjectId>*);
extern template size_t IntersectCandidates<IdEntry>(
    std::span<const ObjectId>, const SplitList<IdEntry>&, bool,
    std::vector<ObjectId>*);

/// \brief out = a ∩ b via linear merge. O(|a| + |b|).
void IntersectMerge(const std::vector<ObjectId>& a,
                    const std::vector<ObjectId>& b,
                    std::vector<ObjectId>* out);

/// \brief out = candidates ∩ b, probing the (larger) sorted vector b by
/// binary search for every candidate. O(|candidates| * log |b|).
void IntersectBinary(const std::vector<ObjectId>& candidates,
                     const std::vector<ObjectId>& b,
                     std::vector<ObjectId>* out);

/// \brief out = a ∩ b via galloping (exponential) search from the smaller
/// list into the larger. O(|a| * log(|b|/|a|)) when |a| << |b|.
void IntersectGalloping(const std::vector<ObjectId>& a,
                        const std::vector<ObjectId>& b,
                        std::vector<ObjectId>* out);

/// \brief True iff id occurs in the sorted, tombstone-free vector.
bool SortedContains(const std::vector<ObjectId>& sorted, ObjectId id);

}  // namespace irhint

#endif  // IRHINT_IR_INTERSECT_H_

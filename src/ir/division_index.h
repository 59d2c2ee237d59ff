// Division-level inverted indexes — the structures irHINT injects into
// every HINT partition division (Section 4).
//
//  * DivisionTif: a temporal inverted file scoped to one (sub)division; the
//    performance variant answers a mode-restricted time-travel IR query
//    directly inside the division (Algorithm 5 / QueryTemporalIF).
//  * DivisionIdIndex: an id-only inverted index per division; the size
//    variant intersects externally computed temporal candidates against it
//    (Algorithm 6 / QueryIF).
//
// Storage layout: a read-optimized CSR core (sorted element keys, offsets,
// one contiguous postings array) plus a small mutable delta for online
// inserts — the classic main+delta design. Because object ids only grow
// (Section 5.5), every id in the delta is larger than every id in the core,
// so scanning core-then-delta yields an id-sorted stream without merging.
// Build paths accumulate into the delta and call Finalize() once to compact
// it into the core.

#ifndef IRHINT_IR_DIVISION_INDEX_H_
#define IRHINT_IR_DIVISION_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/flat_hash_map.h"
#include "common/status.h"
#include "core/integrity.h"
#include "core/query_counters.h"
#include "data/object.h"
#include "hint/traversal.h"
#include "ir/intersect.h"
#include "ir/postings.h"
#include "storage/flat_array.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace irhint {

/// \brief CSR + delta postings storage, generic over the entry payload.
/// Entry must expose an ObjectId `id` field (Posting or IdEntry).
/// Keepalive for mmap-backed FlatArrays: the owning index's
/// storage_keepalive_, one level up (irhint-view-lifetime contract).
template <typename Entry>
class IRHINT_KEEPALIVE_EXTERNAL DivisionPostings {
 public:
  /// \brief Append one entry per element (into the delta). Object ids must
  /// arrive in increasing order.
  void Add(const Entry& entry, const std::vector<ElementId>& elements) {
    for (ElementId e : elements) {
      uint32_t slot;
      if (const uint32_t* found = delta_slot_.find(e)) {
        slot = *found;
      } else {
        slot = static_cast<uint32_t>(delta_lists_.size());
        delta_slot_.insert_or_assign(e, slot);
        delta_lists_.emplace_back();
      }
      delta_lists_[slot].push_back(entry);
      ++num_postings_;
    }
  }

  /// \brief Compact the delta into the CSR core. Idempotent; called once
  /// after a bulk build (queries work without it, just slower).
  void Finalize() {
    if (delta_slot_.empty()) return;
    // Gather (key, delta slot) pairs sorted by key.
    std::vector<std::pair<ElementId, uint32_t>> items;
    items.reserve(delta_slot_.size());
    delta_slot_.ForEach([&items](const ElementId& e, const uint32_t& slot) {
      items.emplace_back(e, slot);
    });
    std::sort(items.begin(), items.end());

    // Merge with the existing core (usually empty at build time).
    std::vector<ElementId> keys;
    std::vector<uint32_t> offsets;
    std::vector<Entry> postings;
    keys.reserve(keys_.size() + items.size());
    postings.reserve(postings_.size() + num_postings_);
    size_t core_pos = 0;
    auto flush_core_until = [&](ElementId bound) {
      while (core_pos < keys_.size() && keys_[core_pos] < bound) {
        keys.push_back(keys_[core_pos]);
        offsets.push_back(static_cast<uint32_t>(postings.size()));
        postings.insert(postings.end(),
                        postings_.begin() + offsets_[core_pos],
                        postings_.begin() + offsets_[core_pos + 1]);
        ++core_pos;
      }
    };
    for (const auto& [e, slot] : items) {
      flush_core_until(e);
      keys.push_back(e);
      offsets.push_back(static_cast<uint32_t>(postings.size()));
      if (core_pos < keys_.size() && keys_[core_pos] == e) {
        postings.insert(postings.end(),
                        postings_.begin() + offsets_[core_pos],
                        postings_.begin() + offsets_[core_pos + 1]);
        ++core_pos;
      }
      postings.insert(postings.end(), delta_lists_[slot].begin(),
                      delta_lists_[slot].end());
    }
    flush_core_until(static_cast<ElementId>(-1));
    if (core_pos < keys_.size()) {  // the max key itself
      keys.push_back(keys_[core_pos]);
      offsets.push_back(static_cast<uint32_t>(postings.size()));
      postings.insert(postings.end(), postings_.begin() + offsets_[core_pos],
                      postings_.end());
    }
    offsets.push_back(static_cast<uint32_t>(postings.size()));

    keys_ = std::move(keys);
    offsets_ = std::move(offsets);
    postings_ = std::move(postings);
    keys_.shrink_to_fit();
    offsets_.shrink_to_fit();
    postings_.shrink_to_fit();
    delta_slot_.clear();
    delta_lists_.clear();
  }

  /// \brief Element e's postings (tombstones included): the core range,
  /// then the delta list. Both runs are empty when e has no postings.
  SplitList<Entry> List(ElementId e) const {
    SplitList<Entry> list;
    const size_t pos = KeyPosition(e);
    if (pos != kNotFound) {
      list.core = std::span<const Entry>(postings_.data() + offsets_[pos],
                                         offsets_[pos + 1] - offsets_[pos]);
    }
    if (const uint32_t* slot = delta_slot_.find(e)) {
      list.delta = delta_lists_[*slot];
    }
    return list;
  }

  /// \brief True while no tombstones exist, i.e. the id order inside core
  /// ranges and delta lists is intact and binary probing is sound.
  bool CanProbe() const { return num_list_tombstones_ == 0; }

  /// \brief Tombstone id's posting under each element; returns the count.
  size_t Tombstone(ObjectId id, const std::vector<ElementId>& elements) {
    size_t tombstoned = 0;

    for (ElementId e : elements) {
      const size_t pos = KeyPosition(e);
      bool done = false;
      if (pos != kNotFound) {
        for (uint32_t i = offsets_[pos]; i < offsets_[pos + 1]; ++i) {
          if (postings_[i].id == id) {
            postings_.MutableData()[i].id = kTombstoneId;
            ++tombstoned;
            done = true;
            break;
          }
        }
      }
      if (done) continue;
      if (const uint32_t* slot = delta_slot_.find(e)) {
        for (Entry& entry : delta_lists_[*slot]) {
          if (entry.id == id) {
            entry.id = kTombstoneId;
            ++tombstoned;
            break;
          }
        }
      }
    }
    num_list_tombstones_ += tombstoned;
    return tombstoned;
  }

  size_t NumPostings() const { return num_postings_; }

  /// \brief Audit the CSR+delta invariants (Section 5.5 / DESIGN.md §9):
  /// sorted unique keys, a well-formed offsets array, per-list id order
  /// (raw order when no tombstones exist — the probe soundness condition —
  /// and live-subsequence order otherwise), delta keys in range, delta ids
  /// above core ids per element, and exact posting/tombstone bookkeeping.
  /// `element_limit` bounds the element-id universe (dictionary range);
  /// pass kNoElementLimit when the owner has no dictionary.
  static constexpr uint64_t kNoElementLimit = ~uint64_t{0};
  Status CheckStructure(CheckLevel level,
                        uint64_t element_limit = kNoElementLimit) const {
    // Shape: keys sorted strictly increasing and inside the dictionary.
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (i > 0 && keys_[i] <= keys_[i - 1]) {
        return Status::Corruption("division keys not strictly increasing");
      }
      if (keys_[i] >= element_limit) {
        return Status::Corruption("division key outside dictionary range");
      }
    }
    if (offsets_.size() != (keys_.empty() ? 0 : keys_.size() + 1)) {
      return Status::Corruption("division offsets size mismatch");
    }
    if (!offsets_.empty()) {
      if (offsets_[0] != 0) {
        return Status::Corruption("division offsets do not start at 0");
      }
      for (size_t i = 1; i < offsets_.size(); ++i) {
        if (offsets_[i] < offsets_[i - 1]) {
          return Status::Corruption("division offsets decrease");
        }
      }
      if (offsets_.back() != postings_.size()) {
        return Status::Corruption("division offsets do not cover postings");
      }
    } else if (!postings_.empty()) {
      return Status::Corruption("division postings without keys");
    }
    if (delta_slot_.size() != delta_lists_.size()) {
      return Status::Corruption("division delta slot/list count mismatch");
    }
    // Bookkeeping: every entry ever added is still stored somewhere.
    size_t stored = postings_.size();
    for (const auto& list : delta_lists_) stored += list.size();
    if (stored != num_postings_) {
      return Status::Corruption("division posting count mismatch");
    }
    if (level == CheckLevel::kQuick) return Status::OK();

    // Deep: per-list id order and the tombstone census.
    size_t tombstones = 0;
    auto check_list = [&](const Entry* begin, const Entry* end) -> Status {
      ObjectId prev_raw = 0;
      ObjectId prev_live = 0;
      bool have_raw = false;
      bool have_live = false;
      for (const Entry* it = begin; it != end; ++it) {
        if (it->id == kTombstoneId) {
          ++tombstones;
        } else {
          if (have_live && it->id <= prev_live) {
            return Status::Corruption("division postings not id-sorted");
          }
          prev_live = it->id;
          have_live = true;
        }
        // Probe soundness: with zero recorded tombstones even the raw
        // order must be intact (Probe() binary-searches raw entries).
        if (num_list_tombstones_ == 0) {
          if (have_raw && it->id <= prev_raw) {
            return Status::Corruption(
                "division postings raw order broken with CanProbe() set");
          }
          prev_raw = it->id;
          have_raw = true;
        }
      }
      return Status::OK();
    };
    for (size_t k = 0; k + 1 < offsets_.size(); ++k) {
      IRHINT_RETURN_NOT_OK(check_list(postings_.data() + offsets_[k],
                                      postings_.data() + offsets_[k + 1]));
    }
    Status delta_status = Status::OK();
    std::vector<bool> slot_seen(delta_lists_.size(), false);
    delta_slot_.ForEach([&](const ElementId& e, const uint32_t& slot) {
      if (!delta_status.ok()) return;
      if (e >= element_limit) {
        delta_status =
            Status::Corruption("division delta key outside dictionary range");
        return;
      }
      if (slot >= delta_lists_.size() || slot_seen[slot]) {
        delta_status = Status::Corruption("division delta slot map broken");
        return;
      }
      slot_seen[slot] = true;
      const auto& list = delta_lists_[slot];
      delta_status = check_list(list.data(), list.data() + list.size());
      if (!delta_status.ok()) return;
      // Main+delta contract: ids only grow, so every live delta id lies
      // above every live core id of the same element.
      const size_t pos = KeyPosition(e);
      if (pos != kNotFound) {
        ObjectId core_max = 0;
        bool have_core = false;
        for (uint32_t i = offsets_[pos]; i < offsets_[pos + 1]; ++i) {
          if (postings_[i].id != kTombstoneId) {
            core_max = postings_[i].id;
            have_core = true;
          }
        }
        if (have_core) {
          for (const Entry& entry : list) {
            if (entry.id != kTombstoneId && entry.id <= core_max) {
              delta_status =
                  Status::Corruption("division delta id below core ids");
              return;
            }
          }
        }
      }
    });
    IRHINT_RETURN_NOT_OK(delta_status);
    if (tombstones != num_list_tombstones_) {
      return Status::Corruption("division tombstone count mismatch");
    }
    return Status::OK();
  }

  /// \brief Visit every stored entry with its element: fn(ElementId,
  /// const Entry&) -> Status; a non-OK return stops and propagates.
  /// Tombstoned entries are included (their payload beyond `id` is intact).
  template <typename Fn>
  Status ForEachEntry(Fn&& fn) const {
    for (size_t k = 0; k + 1 < offsets_.size(); ++k) {
      for (uint32_t i = offsets_[k]; i < offsets_[k + 1]; ++i) {
        IRHINT_RETURN_NOT_OK(fn(keys_[k], postings_[i]));
      }
    }
    Status status = Status::OK();
    delta_slot_.ForEach([&](const ElementId& e, const uint32_t& slot) {
      if (!status.ok() || slot >= delta_lists_.size()) return;
      for (const Entry& entry : delta_lists_[slot]) {
        status = fn(e, entry);
        if (!status.ok()) return;
      }
    });
    return status;
  }

  size_t MemoryUsageBytes() const {
    size_t bytes = keys_.MemoryUsageBytes();
    bytes += offsets_.MemoryUsageBytes();
    bytes += postings_.MemoryUsageBytes();
    bytes += delta_slot_.MemoryUsageBytes();
    bytes += delta_lists_.capacity() * sizeof(std::vector<Entry>);
    for (const auto& list : delta_lists_) {
      bytes += list.capacity() * sizeof(Entry);
    }
    return bytes;
  }

  /// \brief Serialize into the section currently open on `writer`: the CSR
  /// core as three arrays (views of the mapping on the mmap load path),
  /// then the delta as sorted (key, list) pairs, then the counters.
  void SaveTo(SnapshotWriter* writer) const {
    writer->WriteFlatArray(keys_);
    writer->WriteFlatArray(offsets_);
    writer->WriteFlatArray(postings_);
    std::vector<std::pair<ElementId, uint32_t>> items;
    items.reserve(delta_slot_.size());
    delta_slot_.ForEach([&items](const ElementId& e, const uint32_t& slot) {
      items.emplace_back(e, slot);
    });
    std::sort(items.begin(), items.end());
    writer->WriteU64(items.size());
    for (const auto& [e, slot] : items) {
      writer->WriteU32(e);
      writer->WriteVector(delta_lists_[slot]);
    }
    writer->WriteU64(num_postings_);
    writer->WriteU64(num_list_tombstones_);
  }

  IRHINT_UNTRUSTED Status LoadFrom(SectionCursor* cursor) {
    IRHINT_RETURN_NOT_OK(cursor->ReadFlatArray(&keys_));
    IRHINT_RETURN_NOT_OK(cursor->ReadFlatArray(&offsets_));
    IRHINT_RETURN_NOT_OK(cursor->ReadFlatArray(&postings_));
    if (offsets_.size() != (keys_.empty() ? 0 : keys_.size() + 1) ||
        (!offsets_.empty() && offsets_.back() > postings_.size())) {
      return Status::Corruption("division postings CSR shape mismatch");
    }
    uint64_t num_delta = 0;
    IRHINT_RETURN_NOT_OK(cursor->ReadU64(&num_delta));
    delta_slot_.clear();
    delta_lists_.clear();
    for (uint64_t i = 0; i < num_delta; ++i) {
      ElementId e = 0;
      IRHINT_RETURN_NOT_OK(cursor->ReadU32(&e));
      std::vector<Entry> list;
      IRHINT_RETURN_NOT_OK(cursor->ReadVector(&list));
      delta_slot_.insert_or_assign(e,
                                   static_cast<uint32_t>(delta_lists_.size()));
      delta_lists_.push_back(std::move(list));
    }
    uint64_t num_postings, num_tombstones;
    IRHINT_RETURN_NOT_OK(cursor->ReadU64(&num_postings));
    IRHINT_RETURN_NOT_OK(cursor->ReadU64(&num_tombstones));
    num_postings_ = static_cast<size_t>(num_postings);
    num_list_tombstones_ = static_cast<size_t>(num_tombstones);
    return Status::OK();
  }

 private:
  friend struct IntegrityTestPeer;

  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  size_t KeyPosition(ElementId e) const {
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), e);
    if (it == keys_.end() || *it != e) return kNotFound;
    return static_cast<size_t>(it - keys_.begin());
  }

  // CSR core. FlatArrays so a snapshot load can alias the mapping
  // (zero-copy) while built/mutated indexes own plain vectors.
  FlatArray<ElementId> keys_;   // sorted unique element ids
  FlatArray<uint32_t> offsets_; // keys_.size() + 1 offsets into postings_
  FlatArray<Entry> postings_;
  // Mutable delta for online inserts.
  FlatHashMap<ElementId, uint32_t> delta_slot_;
  std::vector<std::vector<Entry>> delta_lists_;
  size_t num_postings_ = 0;
  size_t num_list_tombstones_ = 0;
};

/// \brief Reusable query scratch buffers. irHINT queries touch many small
/// divisions; reusing these across divisions, and across the queries of one
/// thread, avoids heap allocations per division and per query.
struct DivisionQueryScratch {
  /// \brief This thread's scratch, reset for a new query: the tally is
  /// zeroed and `count` set. Buffers keep their capacity between queries.
  static DivisionQueryScratch& ForQuery(bool count);

  std::vector<ObjectId> candidates;
  std::vector<ObjectId> next;
  // The size variant's temporal candidates of one division.
  std::vector<ObjectId> temporal;
  // Per-query work tally, filled by the division queries only when the
  // owning index sets `count`.
  bool count = false;
  QueryCounters counters;
};

/// \brief Temporal inverted file scoped to one HINT (sub)division.
class DivisionTif {
 public:
  /// \brief Append one posting per element (ids arrive in increasing order).
  void Add(ObjectId id, const Interval& interval,
           const std::vector<ElementId>& elements);

  /// \brief Compact after a bulk build.
  void Finalize() { postings_.Finalize(); }

  /// \brief QueryTemporalIF (Algorithm 5): time-travel IR query restricted
  /// to this division, with the temporal conditions selected by `mode`.
  /// `elements` must be pre-sorted by ascending global frequency and
  /// non-empty. Results are appended to out in id order.
  void Query(const std::vector<ElementId>& elements, const Interval& q,
             CheckMode mode, DivisionQueryScratch* scratch,
             std::vector<ObjectId>* out) const;

  /// \brief Tombstone the postings of `id` under the given elements.
  size_t Tombstone(ObjectId id, const std::vector<ElementId>& elements) {
    return postings_.Tombstone(id, elements);
  }

  size_t NumPostings() const { return postings_.NumPostings(); }
  size_t MemoryUsageBytes() const { return postings_.MemoryUsageBytes(); }

  void SaveTo(SnapshotWriter* writer) const { postings_.SaveTo(writer); }
  IRHINT_UNTRUSTED Status LoadFrom(SectionCursor* cursor) {
    return postings_.LoadFrom(cursor);
  }

  /// \brief Audit the underlying postings structure; see
  /// DivisionPostings::CheckStructure.
  Status CheckStructure(CheckLevel level,
                        uint64_t element_limit =
                            DivisionPostings<Posting>::kNoElementLimit) const {
    return postings_.CheckStructure(level, element_limit);
  }

  /// \brief Visit every stored posting: fn(ElementId, const Posting&) ->
  /// Status (tombstones included; their endpoints stay intact).
  template <typename Fn>
  Status ForEachEntry(Fn&& fn) const {
    return postings_.ForEachEntry(std::forward<Fn>(fn));
  }

 private:
  friend struct IntegrityTestPeer;

  DivisionPostings<Posting> postings_;
};

/// \brief Id-only inverted index scoped to one HINT division.
class DivisionIdIndex {
 public:
  /// \brief Append one id per element (ids arrive in increasing order).
  void Add(ObjectId id, const std::vector<ElementId>& elements) {
    postings_.Add(IdEntry{id}, elements);
  }

  /// \brief Compact after a bulk build.
  void Finalize() { postings_.Finalize(); }

  /// \brief QueryIF (Algorithm 6): intersect the sorted temporal candidate
  /// set with the postings of every query element, in merge fashion.
  /// Results are appended to out in id order.
  void Intersect(const std::vector<ObjectId>& sorted_candidates,
                 const std::vector<ElementId>& elements,
                 DivisionQueryScratch* scratch,
                 std::vector<ObjectId>* out) const;

  /// \brief Fast path for divisions that need no temporal checks (CheckMode
  /// kNone): the candidate set is the whole division, so the result is the
  /// intersection of the query elements' own postings lists. `elements`
  /// must be pre-sorted by ascending global frequency.
  void IntersectLists(const std::vector<ElementId>& elements,
                      DivisionQueryScratch* scratch,
                      std::vector<ObjectId>* out) const;

  size_t Tombstone(ObjectId id, const std::vector<ElementId>& elements) {
    return postings_.Tombstone(id, elements);
  }

  size_t NumPostings() const { return postings_.NumPostings(); }
  size_t MemoryUsageBytes() const { return postings_.MemoryUsageBytes(); }

  void SaveTo(SnapshotWriter* writer) const { postings_.SaveTo(writer); }
  IRHINT_UNTRUSTED Status LoadFrom(SectionCursor* cursor) {
    return postings_.LoadFrom(cursor);
  }

  /// \brief Audit the underlying postings structure; see
  /// DivisionPostings::CheckStructure.
  Status CheckStructure(CheckLevel level,
                        uint64_t element_limit =
                            DivisionPostings<IdEntry>::kNoElementLimit) const {
    return postings_.CheckStructure(level, element_limit);
  }

  /// \brief Visit every stored id entry: fn(ElementId, const IdEntry&) ->
  /// Status (tombstones included).
  template <typename Fn>
  Status ForEachEntry(Fn&& fn) const {
    return postings_.ForEachEntry(std::forward<Fn>(fn));
  }

 private:
  friend struct IntegrityTestPeer;

  DivisionPostings<IdEntry> postings_;
};

}  // namespace irhint

#endif  // IRHINT_IR_DIVISION_INDEX_H_

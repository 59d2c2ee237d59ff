#include "ir/tif.h"

#include <algorithm>
#include <limits>

#include "ir/intersect.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace irhint {

uint32_t TemporalInvertedFile::SlotFor(ElementId e) {
  if (const uint32_t* slot = element_slot_.find(e)) return *slot;
  const uint32_t slot = static_cast<uint32_t>(lists_.size());
  element_slot_.insert_or_assign(e, slot);
  lists_.emplace_back();
  live_counts_.push_back(0);
  return slot;
}

Status TemporalInvertedFile::Build(const Corpus& corpus) {
  if (corpus.domain_end() >= std::numeric_limits<StoredTime>::max()) {
    return Status::InvalidArgument("domain exceeds 32-bit stored endpoints");
  }
  domain_end_ = corpus.domain_end();
  element_slot_.reserve(corpus.dictionary().size());
  for (const Object& o : corpus.objects()) {
    IRHINT_RETURN_NOT_OK(Insert(o));
  }
  return Status::OK();
}

Status TemporalInvertedFile::Insert(const Object& object) {
  IRHINT_RETURN_NOT_OK(ValidateObject(object));
  if (object.interval.end >= std::numeric_limits<StoredTime>::max()) {
    return Status::OutOfDomain("interval exceeds 32-bit stored endpoints");
  }
  domain_end_ = std::max(domain_end_, object.interval.end);
  const Posting posting{object.id,
                        static_cast<StoredTime>(object.interval.st),
                        static_cast<StoredTime>(object.interval.end)};
  for (ElementId e : object.elements) {
    const uint32_t slot = SlotFor(e);
    // Ids arrive in increasing order, so appending keeps lists id-sorted.
    lists_[slot].push_back(posting);
    ++live_counts_[slot];
  }
  return Status::OK();
}

Status TemporalInvertedFile::Erase(const Object& object) {
  size_t tombstoned = 0;
  for (ElementId e : object.elements) {
    const uint32_t* slot = element_slot_.find(e);
    if (slot == nullptr) continue;
    FlatArray<Posting>& list = lists_[*slot];
    // Tombstoning overwrites ids in place, which breaks binary-search
    // preconditions; locate by linear scan (deletion cost tracks list
    // length, as in the paper's update study). The scan is read-only;
    // only a hit materializes a mapped list.
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].id == object.id) {
        list.MutableData()[i].id = kTombstoneId;
        --live_counts_[*slot];
        ++tombstoned;
        break;
      }
    }
  }
  return tombstoned > 0 ? Status::OK()
                        : Status::NotFound("object not present");
}

const FlatArray<Posting>* TemporalInvertedFile::List(ElementId e) const {
  const uint32_t* slot = element_slot_.find(e);
  return slot != nullptr ? &lists_[*slot] : nullptr;
}

uint64_t TemporalInvertedFile::Frequency(ElementId e) const {
  const uint32_t* slot = element_slot_.find(e);
  return slot != nullptr ? live_counts_[*slot] : 0;
}

void TemporalInvertedFile::SortByFrequency(
    std::vector<ElementId>* elements) const {
  std::sort(elements->begin(), elements->end(),
            [this](ElementId a, ElementId b) {
              const uint64_t fa = Frequency(a);
              const uint64_t fb = Frequency(b);
              if (fa != fb) return fa < fb;
              return a < b;
            });
}

void TemporalInvertedFile::Query(const irhint::Query& query,
                                 std::vector<ObjectId>* out) const {
  out->clear();
  if (query.elements.empty()) return;

  // Algorithm 1, lines 2-3: consider elements by increasing frequency.
  std::vector<ElementId> elements = query.elements;
  SortByFrequency(&elements);

  const FlatArray<Posting>* first = List(elements[0]);
  if (first == nullptr) return;

  QueryCounters local;
  local.divisions_visited = 1;
  local.postings_scanned = first->size();

  // Lines 4-6: temporal filter over the least frequent element's list.
  std::vector<ObjectId> candidates;
  for (const Posting& p : *first) {
    if (p.id != kTombstoneId && PostingOverlaps(p, query.interval)) {
      candidates.push_back(p.id);
    }
  }
  local.candidates_verified = candidates.size();

  // Lines 7-8: intersect with the remaining lists.
  std::vector<ObjectId> next;
  for (size_t i = 1; i < elements.size() && !candidates.empty(); ++i) {
    const FlatArray<Posting>* list = List(elements[i]);
    if (list == nullptr) {
      candidates.clear();
      break;
    }
    ++local.divisions_visited;
    ++local.intersections_performed;
    local.postings_scanned += list->size();
    next.clear();
    IntersectCandidates(candidates, SplitList<Posting>{list->span(), {}},
                        Frequency(elements[i]) == list->size(), &next);
    candidates.swap(next);
  }
  out->swap(candidates);
  counters_.Accumulate(local);
}

size_t TemporalInvertedFile::MemoryUsageBytes() const {
  size_t bytes = element_slot_.MemoryUsageBytes();
  bytes += lists_.capacity() * sizeof(FlatArray<Posting>);
  bytes += live_counts_.capacity() * sizeof(uint64_t);
  for (const FlatArray<Posting>& list : lists_) {
    bytes += list.MemoryUsageBytes();
  }
  return bytes;
}

void TemporalInvertedFile::SaveState(SnapshotWriter* writer) const {
  writer->WriteU64(domain_end_);
  // Invert the slot map into a per-slot element array: deterministic bytes
  // and a direct rebuild of element_slot_ on load.
  std::vector<ElementId> slot_elements(lists_.size(), 0);
  element_slot_.ForEach([&slot_elements](const ElementId& e,
                                         const uint32_t& slot) {
    slot_elements[slot] = e;
  });
  writer->WriteVector(slot_elements);
  writer->WriteVector(live_counts_);
  for (const FlatArray<Posting>& list : lists_) {
    writer->WriteFlatArray(list);
  }
}

Status TemporalInvertedFile::LoadState(SectionCursor* cursor) {
  IRHINT_RETURN_NOT_OK(cursor->ReadU64(&domain_end_));
  std::vector<ElementId> slot_elements;
  IRHINT_RETURN_NOT_OK(cursor->ReadVector(&slot_elements));
  IRHINT_RETURN_NOT_OK(cursor->ReadVector(&live_counts_));
  if (live_counts_.size() != slot_elements.size()) {
    return Status::Corruption("tIF snapshot directory shape mismatch");
  }
  element_slot_.clear();
  element_slot_.reserve(slot_elements.size());
  lists_.assign(slot_elements.size(), {});
  for (uint32_t slot = 0; slot < slot_elements.size(); ++slot) {
    element_slot_.insert_or_assign(slot_elements[slot], slot);
    IRHINT_RETURN_NOT_OK(cursor->ReadFlatArray(&lists_[slot]));
  }
  return Status::OK();
}

Status TemporalInvertedFile::IntegrityCheck(CheckLevel level) const {
  if (lists_.size() != live_counts_.size() ||
      lists_.size() != element_slot_.size()) {
    return Status::Corruption("tIF directory shape mismatch");
  }
  Status status = Status::OK();
  std::vector<bool> slot_seen(lists_.size(), false);
  element_slot_.ForEach([&](const ElementId&, const uint32_t& slot) {
    if (!status.ok()) return;
    if (slot >= lists_.size() || slot_seen[slot]) {
      status = Status::Corruption("tIF element slot map broken");
      return;
    }
    slot_seen[slot] = true;
  });
  IRHINT_RETURN_NOT_OK(status);
  if (level == CheckLevel::kQuick) return Status::OK();

  for (size_t slot = 0; slot < lists_.size(); ++slot) {
    const FlatArray<Posting>& list = lists_[slot];
    uint64_t live = 0;
    ObjectId prev_live = 0;
    bool have_live = false;
    for (size_t i = 0; i < list.size(); ++i) {
      const Posting& p = list[i];
      if (p.id != kTombstoneId) {
        // Tombstones keep their slot; the live subsequence must stay
        // strictly id-increasing (merge-intersection soundness).
        if (have_live && p.id <= prev_live) {
          return Status::Corruption("tIF postings list not id-sorted");
        }
        prev_live = p.id;
        have_live = true;
        ++live;
      }
      if (p.st > p.end) {
        return Status::Corruption("tIF posting has inverted interval");
      }
      if (p.end > domain_end_) {
        return Status::Corruption("tIF posting exceeds declared domain");
      }
    }
    if (live != live_counts_[slot]) {
      return Status::Corruption("tIF live count mismatch");
    }
  }
  return Status::OK();
}

Status TemporalInvertedFile::SaveTo(SnapshotWriter* writer) const {
  writer->BeginSection(kSectionPayload);
  SaveState(writer);
  return writer->EndSection();
}

Status TemporalInvertedFile::LoadFrom(SnapshotReader* reader) {
  auto cursor = reader->OpenSection(kSectionPayload);
  IRHINT_RETURN_NOT_OK(cursor.status());
  return LoadState(&cursor.value());
}

}  // namespace irhint

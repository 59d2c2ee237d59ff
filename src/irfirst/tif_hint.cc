#include "irfirst/tif_hint.h"

#include <algorithm>
#include <limits>

#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace irhint {

HintOptions TifHint::HintOptionsFor() const {
  HintOptions options;
  options.num_bits = options_.num_bits;
  options.sort_mode = options_.mode == TifHintMode::kBinarySearch
                          ? HintSortMode::kBeneficial
                          : HintSortMode::kById;
  return options;
}

Status TifHint::SlotFor(ElementId e, uint32_t* out) {
  if (const uint32_t* slot = element_slot_.find(e)) {
    *out = *slot;
    return Status::OK();
  }
  // An empty build establishes the domain mapper and options. Build into
  // a local first: if it fails, no half-created slot is left behind.
  HintIndex fresh;
  IRHINT_RETURN_NOT_OK(fresh.Build({}, domain_end_, HintOptionsFor()));
  const uint32_t slot = static_cast<uint32_t>(hints_.size());
  element_slot_.insert_or_assign(e, slot);
  hints_.push_back(std::move(fresh));
  live_counts_.push_back(0);
  *out = slot;
  return Status::OK();
}

Status TifHint::Build(const Corpus& corpus) {
  if (corpus.domain_end() >= std::numeric_limits<StoredTime>::max()) {
    return Status::InvalidArgument("domain exceeds 32-bit stored endpoints");
  }
  domain_end_ = corpus.domain_end();
  built_ = true;
  element_slot_.reserve(corpus.dictionary().size());

  // Group records per element, then build one HINT per postings list.
  std::vector<std::vector<IntervalRecord>> grouped;
  for (const Object& o : corpus.objects()) {
    for (ElementId e : o.elements) {
      uint32_t slot;
      if (const uint32_t* found = element_slot_.find(e)) {
        slot = *found;
      } else {
        slot = static_cast<uint32_t>(hints_.size());
        element_slot_.insert_or_assign(e, slot);
        hints_.emplace_back();
        live_counts_.push_back(0);
      }
      if (slot >= grouped.size()) grouped.resize(slot + 1);
      grouped[slot].push_back(IntervalRecord{o.id, o.interval});
      ++live_counts_[slot];
    }
  }
  for (size_t slot = 0; slot < hints_.size(); ++slot) {
    const std::vector<IntervalRecord> empty;
    const std::vector<IntervalRecord>& records =
        slot < grouped.size() ? grouped[slot] : empty;
    IRHINT_RETURN_NOT_OK(
        hints_[slot].Build(records, domain_end_, HintOptionsFor()));
  }
  return Status::OK();
}

Status TifHint::Insert(const Object& object) {
  IRHINT_RETURN_NOT_OK(ValidateObject(object));
  if (!built_) return Status::InvalidArgument("index not built");
  // Intervals past the declared domain are accepted: each postings HINT
  // keeps them in its overflow store (time-expanding extension).
  for (ElementId e : object.elements) {
    uint32_t slot = 0;
    IRHINT_RETURN_NOT_OK(SlotFor(e, &slot));
    IRHINT_RETURN_NOT_OK(hints_[slot].Insert(object.id, object.interval));
    ++live_counts_[slot];
  }
  return Status::OK();
}

Status TifHint::Erase(const Object& object) {
  size_t tombstoned = 0;
  for (ElementId e : object.elements) {
    const uint32_t* slot = element_slot_.find(e);
    if (slot == nullptr) continue;
    if (hints_[*slot].Erase(object.id, object.interval).ok()) {
      --live_counts_[*slot];
      ++tombstoned;
    }
  }
  return tombstoned > 0 ? Status::OK()
                        : Status::NotFound("object not present");
}

uint64_t TifHint::Frequency(ElementId e) const {
  const uint32_t* slot = element_slot_.find(e);
  return slot != nullptr ? live_counts_[*slot] : 0;
}

const HintIndex* TifHint::PostingsHint(ElementId e) const {
  const uint32_t* slot = element_slot_.find(e);
  return slot != nullptr ? &hints_[*slot] : nullptr;
}

void TifHint::Query(const irhint::Query& query, std::vector<ObjectId>* out) const {
  out->clear();
  if (query.elements.empty()) return;

  std::vector<ElementId> elements = query.elements;
  std::sort(elements.begin(), elements.end(),
            [this](ElementId a, ElementId b) {
              const uint64_t fa = Frequency(a);
              const uint64_t fb = Frequency(b);
              if (fa != fb) return fa < fb;
              return a < b;
            });

  const uint32_t* first_slot = element_slot_.find(elements[0]);
  if (first_slot == nullptr) return;

  // Initial candidates: a plain HINT range query on the least frequent
  // element's postings HINT (Algorithms 3/4, line 3).
  std::vector<ObjectId> candidates;
  hints_[*first_slot].RangeQuery(query.interval, &candidates);

  QueryCounters local;
  local.divisions_visited = 1;  // one traversed postings HINT so far
  local.postings_scanned = candidates.size();

  std::vector<ObjectId> next;
  for (size_t i = 1; i < elements.size() && !candidates.empty(); ++i) {
    const uint32_t* slot = element_slot_.find(elements[i]);
    if (slot == nullptr) {
      candidates.clear();
      break;
    }
    ++local.divisions_visited;
    ++local.intersections_performed;
    local.candidates_verified += candidates.size();
    std::sort(candidates.begin(), candidates.end());
    next.clear();
    if (options_.mode == TifHintMode::kBinarySearch) {
      hints_[*slot].RangeQueryFiltered(query.interval, candidates, &next);
    } else {
      hints_[*slot].IntersectRelevant(query.interval, candidates, &next);
    }
    candidates.swap(next);
  }
  out->swap(candidates);
  counters_.Accumulate(local);
}

size_t TifHint::MemoryUsageBytes() const {
  size_t bytes = element_slot_.MemoryUsageBytes();
  bytes += hints_.capacity() * sizeof(HintIndex);
  bytes += live_counts_.capacity() * sizeof(uint64_t);
  for (const HintIndex& hint : hints_) {
    bytes += hint.MemoryUsageBytes();
  }
  return bytes;
}

Status TifHint::IntegrityCheck(CheckLevel level) const {
  if (hints_.size() != live_counts_.size() ||
      hints_.size() != element_slot_.size()) {
    return Status::Corruption("tif_hint directory shape mismatch");
  }
  Status status = Status::OK();
  std::vector<bool> slot_seen(hints_.size(), false);
  element_slot_.ForEach([&](const ElementId&, const uint32_t& slot) {
    if (!status.ok()) return;
    if (slot >= hints_.size() || slot_seen[slot]) {
      status = Status::Corruption("tif_hint element slot map broken");
      return;
    }
    slot_seen[slot] = true;
  });
  IRHINT_RETURN_NOT_OK(status);

  for (size_t slot = 0; slot < hints_.size(); ++slot) {
    IRHINT_RETURN_NOT_OK(hints_[slot].IntegrityCheck(level));
    if (level == CheckLevel::kQuick) continue;
    // Each object occupies exactly one original assignment (or the
    // overflow store) of its postings HINT, so live originals must equal
    // the element's live frequency.
    if (hints_[slot].LiveOriginalCount() != live_counts_[slot]) {
      return Status::Corruption("tif_hint live count out of sync with "
                                "postings HINT");
    }
  }
  return Status::OK();
}

Status TifHint::SaveTo(SnapshotWriter* writer) const {
  writer->BeginSection(kSectionMeta);
  writer->WriteI32(options_.num_bits);
  writer->WriteU8(options_.mode == TifHintMode::kBinarySearch ? 0 : 1);
  writer->WriteU64(domain_end_);
  writer->WriteU8(built_ ? 1 : 0);
  IRHINT_RETURN_NOT_OK(writer->EndSection());

  writer->BeginSection(kSectionDirectory);
  std::vector<ElementId> slot_elements(hints_.size(), 0);
  element_slot_.ForEach([&slot_elements](const ElementId& e,
                                         const uint32_t& slot) {
    slot_elements[slot] = e;
  });
  writer->WriteVector(slot_elements);
  writer->WriteVector(live_counts_);
  IRHINT_RETURN_NOT_OK(writer->EndSection());

  writer->BeginSection(kSectionPayload);
  for (const HintIndex& hint : hints_) {
    hint.SaveTo(writer);
  }
  return writer->EndSection();
}

Status TifHint::LoadFrom(SnapshotReader* reader) {
  auto meta = reader->OpenSection(kSectionMeta);
  IRHINT_RETURN_NOT_OK(meta.status());
  uint8_t mode, built;
  IRHINT_RETURN_NOT_OK(meta->ReadI32(&options_.num_bits));
  IRHINT_RETURN_NOT_OK(meta->ReadU8(&mode));
  IRHINT_RETURN_NOT_OK(meta->ReadU64(&domain_end_));
  IRHINT_RETURN_NOT_OK(meta->ReadU8(&built));
  options_.mode =
      mode == 0 ? TifHintMode::kBinarySearch : TifHintMode::kMergeSort;
  built_ = built != 0;

  auto directory = reader->OpenSection(kSectionDirectory);
  IRHINT_RETURN_NOT_OK(directory.status());
  std::vector<ElementId> slot_elements;
  IRHINT_RETURN_NOT_OK(directory->ReadVector(&slot_elements));
  IRHINT_RETURN_NOT_OK(directory->ReadVector(&live_counts_));
  if (live_counts_.size() != slot_elements.size()) {
    return Status::Corruption("tif_hint snapshot directory shape mismatch");
  }
  element_slot_.clear();
  element_slot_.reserve(slot_elements.size());
  for (uint32_t slot = 0; slot < slot_elements.size(); ++slot) {
    element_slot_.insert_or_assign(slot_elements[slot], slot);
  }

  auto payload = reader->OpenSection(kSectionPayload);
  IRHINT_RETURN_NOT_OK(payload.status());
  hints_.assign(slot_elements.size(), {});
  for (HintIndex& hint : hints_) {
    IRHINT_RETURN_NOT_OK(hint.LoadFrom(&payload.value()));
  }
  return Status::OK();
}

}  // namespace irhint

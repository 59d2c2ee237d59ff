#include "irfirst/tif_slicing.h"

#include <algorithm>
#include <limits>

namespace irhint {

uint32_t TifSlicing::SlotFor(ElementId e) {
  if (const uint32_t* slot = element_slot_.find(e)) return *slot;
  const uint32_t slot = static_cast<uint32_t>(lists_.size());
  element_slot_.insert_or_assign(e, slot);
  lists_.emplace_back();
  live_counts_.push_back(0);
  return slot;
}

Status TifSlicing::Build(const Corpus& corpus) {
  if (options_.num_slices == 0) {
    return Status::InvalidArgument("num_slices must be positive");
  }
  if (corpus.domain_end() >= std::numeric_limits<StoredTime>::max()) {
    return Status::InvalidArgument("domain exceeds 32-bit stored endpoints");
  }
  grid_ = SliceGrid(corpus.domain_end(), options_.num_slices);
  element_slot_.reserve(corpus.dictionary().size());
  built_ = true;
  for (const Object& o : corpus.objects()) {
    IRHINT_RETURN_NOT_OK(Insert(o));
  }
  return Status::OK();
}

Status TifSlicing::Insert(const Object& object) {
  IRHINT_RETURN_NOT_OK(ValidateObject(object));
  if (!built_) return Status::InvalidArgument("index not built");
  if (object.interval.end >= std::numeric_limits<StoredTime>::max()) {
    return Status::OutOfDomain("interval exceeds 32-bit stored endpoints");
  }
  for (ElementId e : object.elements) {
    const uint32_t slot = SlotFor(e);
    lists_[slot].Add(grid_, object.id, object.interval);
    ++live_counts_[slot];
  }
  return Status::OK();
}

Status TifSlicing::Erase(const Object& object) {
  size_t tombstoned = 0;
  for (ElementId e : object.elements) {
    const uint32_t* slot = element_slot_.find(e);
    if (slot == nullptr) continue;
    const size_t n =
        lists_[*slot].Tombstone(grid_, object.id, object.interval);
    if (n > 0) {
      --live_counts_[*slot];
      tombstoned += n;
    }
  }
  return tombstoned > 0 ? Status::OK()
                        : Status::NotFound("object not present");
}

uint64_t TifSlicing::Frequency(ElementId e) const {
  const uint32_t* slot = element_slot_.find(e);
  return slot != nullptr ? live_counts_[*slot] : 0;
}

void TifSlicing::Query(const irhint::Query& query,
                       std::vector<ObjectId>* out) const {
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

  // Temporal filter + reference de-duplication over the relevant slices of
  // the least frequent element.
  CandidateChunks chunks;
  lists_[*first_slot].BuildCandidates(grid_, query.interval, &chunks);

  // Slice-by-slice merge intersections with the remaining elements.
  CandidateChunks next;
  for (size_t i = 1; i < elements.size() && !chunks.empty(); ++i) {
    const uint32_t* slot = element_slot_.find(elements[i]);
    if (slot == nullptr) return;
    next.clear();
    lists_[*slot].IntersectChunks(chunks, &next);
    chunks.swap(next);
  }
  FlattenChunks(chunks, out);
}

size_t TifSlicing::NumEntries() const {
  size_t n = 0;
  for (const SlicedPostings& list : lists_) n += list.NumEntries();
  return n;
}

size_t TifSlicing::MemoryUsageBytes() const {
  size_t bytes = element_slot_.MemoryUsageBytes();
  bytes += lists_.capacity() * sizeof(SlicedPostings);
  bytes += live_counts_.capacity() * sizeof(uint64_t);
  for (const SlicedPostings& list : lists_) {
    bytes += list.MemoryUsageBytes();
  }
  return bytes;
}

Status TifSlicing::IntegrityCheck(CheckLevel level) const {
  if (lists_.size() != live_counts_.size() ||
      lists_.size() != element_slot_.size()) {
    return Status::Corruption("tif_slicing directory shape mismatch");
  }
  if (built_ && grid_.num_slices() == 0) {
    return Status::Corruption("tif_slicing grid has zero slices");
  }
  Status status = Status::OK();
  std::vector<bool> slot_seen(lists_.size(), false);
  element_slot_.ForEach([&](const ElementId&, const uint32_t& slot) {
    if (!status.ok()) return;
    if (slot >= lists_.size() || slot_seen[slot]) {
      status = Status::Corruption("tif_slicing element slot map broken");
      return;
    }
    slot_seen[slot] = true;
  });
  IRHINT_RETURN_NOT_OK(status);

  for (size_t slot = 0; slot < lists_.size(); ++slot) {
    IRHINT_RETURN_NOT_OK(lists_[slot].CheckStructure(grid_, level));
    if (level == CheckLevel::kQuick) continue;
    // Reference de-duplication counts every live object exactly once (in
    // the slice holding its start), so the representative census must
    // match the live-frequency table.
    if (lists_[slot].LiveObjectCount(grid_) != live_counts_[slot]) {
      return Status::Corruption("tif_slicing live count out of sync with "
                                "sliced list");
    }
  }
  return Status::OK();
}

Status TifSlicing::SaveTo(SnapshotWriter* writer) const {
  writer->BeginSection(kSectionMeta);
  writer->WriteU32(options_.num_slices);
  writer->WriteU32(grid_.num_slices());
  writer->WriteU64(grid_.domain_end());
  writer->WriteU8(built_ ? 1 : 0);
  IRHINT_RETURN_NOT_OK(writer->EndSection());

  writer->BeginSection(kSectionDirectory);
  std::vector<ElementId> slot_elements(lists_.size(), 0);
  element_slot_.ForEach([&slot_elements](const ElementId& e,
                                         const uint32_t& slot) {
    slot_elements[slot] = e;
  });
  writer->WriteVector(slot_elements);
  writer->WriteVector(live_counts_);
  IRHINT_RETURN_NOT_OK(writer->EndSection());

  writer->BeginSection(kSectionPayload);
  for (const SlicedPostings& list : lists_) {
    list.SaveTo(writer);
  }
  return writer->EndSection();
}

Status TifSlicing::LoadFrom(SnapshotReader* reader) {
  auto meta = reader->OpenSection(kSectionMeta);
  IRHINT_RETURN_NOT_OK(meta.status());
  uint32_t grid_slices;
  uint64_t domain_end;
  uint8_t built;
  IRHINT_RETURN_NOT_OK(meta->ReadU32(&options_.num_slices));
  IRHINT_RETURN_NOT_OK(meta->ReadU32(&grid_slices));
  IRHINT_RETURN_NOT_OK(meta->ReadU64(&domain_end));
  IRHINT_RETURN_NOT_OK(meta->ReadU8(&built));
  if (grid_slices == 0) {
    return Status::Corruption("tif_slicing snapshot has zero slices");
  }
  grid_ = SliceGrid(domain_end, grid_slices);
  built_ = built != 0;

  auto directory = reader->OpenSection(kSectionDirectory);
  IRHINT_RETURN_NOT_OK(directory.status());
  std::vector<ElementId> slot_elements;
  IRHINT_RETURN_NOT_OK(directory->ReadVector(&slot_elements));
  IRHINT_RETURN_NOT_OK(directory->ReadVector(&live_counts_));
  if (live_counts_.size() != slot_elements.size()) {
    return Status::Corruption(
        "tif_slicing snapshot directory shape mismatch");
  }
  element_slot_.clear();
  element_slot_.reserve(slot_elements.size());
  for (uint32_t slot = 0; slot < slot_elements.size(); ++slot) {
    element_slot_.insert_or_assign(slot_elements[slot], slot);
  }

  auto payload = reader->OpenSection(kSectionPayload);
  IRHINT_RETURN_NOT_OK(payload.status());
  lists_.assign(slot_elements.size(), {});
  for (SlicedPostings& list : lists_) {
    IRHINT_RETURN_NOT_OK(list.LoadFrom(&payload.value()));
  }
  return Status::OK();
}

}  // namespace irhint

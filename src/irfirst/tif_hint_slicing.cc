#include "irfirst/tif_hint_slicing.h"

#include <algorithm>
#include <limits>

namespace irhint {

namespace {

HintOptions MakeHintOptions(int num_bits) {
  HintOptions options;
  options.num_bits = num_bits;
  options.sort_mode = HintSortMode::kById;
  return options;
}

}  // namespace

Status TifHintSlicing::SlotFor(ElementId e, uint32_t* out) {
  if (const uint32_t* slot = element_slot_.find(e)) {
    *out = *slot;
    return Status::OK();
  }
  // Build into a local first: a failed empty build (an invariant breach,
  // but one the caller must see) leaves no half-created slot behind.
  HintIndex fresh;
  IRHINT_RETURN_NOT_OK(
      fresh.Build({}, domain_end_, MakeHintOptions(options_.num_bits)));
  const uint32_t slot = static_cast<uint32_t>(hints_.size());
  element_slot_.insert_or_assign(e, slot);
  hints_.push_back(std::move(fresh));
  slices_.emplace_back();
  live_counts_.push_back(0);
  *out = slot;
  return Status::OK();
}

Status TifHintSlicing::Build(const Corpus& corpus) {
  if (corpus.domain_end() >= std::numeric_limits<StoredTime>::max()) {
    return Status::InvalidArgument("domain exceeds 32-bit stored endpoints");
  }
  if (options_.num_slices == 0) {
    return Status::InvalidArgument("num_slices must be positive");
  }
  domain_end_ = corpus.domain_end();
  grid_ = SliceGrid(domain_end_, options_.num_slices);
  built_ = true;
  element_slot_.reserve(corpus.dictionary().size());

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
        slices_.emplace_back();
        live_counts_.push_back(0);
      }
      if (slot >= grouped.size()) grouped.resize(slot + 1);
      grouped[slot].push_back(IntervalRecord{o.id, o.interval});
      slices_[slot].Add(grid_, o.id, o.interval);
      ++live_counts_[slot];
    }
  }
  for (size_t slot = 0; slot < hints_.size(); ++slot) {
    const std::vector<IntervalRecord> empty;
    const std::vector<IntervalRecord>& records =
        slot < grouped.size() ? grouped[slot] : empty;
    IRHINT_RETURN_NOT_OK(hints_[slot].Build(
        records, domain_end_, MakeHintOptions(options_.num_bits)));
  }
  return Status::OK();
}

Status TifHintSlicing::Insert(const Object& object) {
  IRHINT_RETURN_NOT_OK(ValidateObject(object));
  if (!built_) return Status::InvalidArgument("index not built");
  // Beyond-domain intervals go to the HINT copies' overflow stores; the
  // sliced copy clamps them into its last slice (both remain exact).
  for (ElementId e : object.elements) {
    uint32_t slot = 0;
    IRHINT_RETURN_NOT_OK(SlotFor(e, &slot));
    IRHINT_RETURN_NOT_OK(hints_[slot].Insert(object.id, object.interval));
    slices_[slot].Add(grid_, object.id, object.interval);
    ++live_counts_[slot];
  }
  return Status::OK();
}

Status TifHintSlicing::Erase(const Object& object) {
  size_t tombstoned = 0;
  for (ElementId e : object.elements) {
    const uint32_t* slot = element_slot_.find(e);
    if (slot == nullptr) continue;
    bool any = false;
    if (hints_[*slot].Erase(object.id, object.interval).ok()) any = true;
    if (slices_[*slot].Tombstone(grid_, object.id, object.interval) > 0) {
      any = true;
    }
    if (any) {
      --live_counts_[*slot];
      ++tombstoned;
    }
  }
  return tombstoned > 0 ? Status::OK()
                        : Status::NotFound("object not present");
}

uint64_t TifHintSlicing::Frequency(ElementId e) const {
  const uint32_t* slot = element_slot_.find(e);
  return slot != nullptr ? live_counts_[*slot] : 0;
}

void TifHintSlicing::Query(const irhint::Query& query,
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

  // Initial candidates from the HINT copy of the least frequent element.
  std::vector<ObjectId> candidates;
  hints_[*first_slot].RangeQuery(query.interval, &candidates);
  if (elements.size() == 1) {
    out->swap(candidates);
    return;
  }
  std::sort(candidates.begin(), candidates.end());

  // First intersection: flat candidates against the sliced copy of the
  // second element (reference-value de-duplication splits them into
  // per-slice chunks).
  const uint32_t* slot = element_slot_.find(elements[1]);
  if (slot == nullptr) return;
  CandidateChunks chunks;
  slices_[*slot].IntersectFlat(grid_, query.interval, candidates, &chunks);

  // Remaining intersections run chunk-by-chunk.
  CandidateChunks next;
  for (size_t i = 2; i < elements.size() && !chunks.empty(); ++i) {
    slot = element_slot_.find(elements[i]);
    if (slot == nullptr) return;
    next.clear();
    slices_[*slot].IntersectChunks(chunks, &next);
    chunks.swap(next);
  }
  FlattenChunks(chunks, out);
}

size_t TifHintSlicing::MemoryUsageBytes() const {
  size_t bytes = element_slot_.MemoryUsageBytes();
  bytes += hints_.capacity() * sizeof(HintIndex);
  bytes += slices_.capacity() * sizeof(SlicedPostingsIdSt);
  bytes += live_counts_.capacity() * sizeof(uint64_t);
  for (const HintIndex& hint : hints_) bytes += hint.MemoryUsageBytes();
  for (const SlicedPostingsIdSt& s : slices_) bytes += s.MemoryUsageBytes();
  return bytes;
}

Status TifHintSlicing::IntegrityCheck(CheckLevel level) const {
  if (hints_.size() != live_counts_.size() ||
      hints_.size() != slices_.size() ||
      hints_.size() != element_slot_.size()) {
    return Status::Corruption("tif_hint_slicing directory shape mismatch");
  }
  if (built_ && grid_.num_slices() == 0) {
    return Status::Corruption("tif_hint_slicing grid has zero slices");
  }
  Status status = Status::OK();
  std::vector<bool> slot_seen(hints_.size(), false);
  element_slot_.ForEach([&](const ElementId&, const uint32_t& slot) {
    if (!status.ok()) return;
    if (slot >= hints_.size() || slot_seen[slot]) {
      status = Status::Corruption("tif_hint_slicing element slot map broken");
      return;
    }
    slot_seen[slot] = true;
  });
  IRHINT_RETURN_NOT_OK(status);

  for (size_t slot = 0; slot < hints_.size(); ++slot) {
    IRHINT_RETURN_NOT_OK(hints_[slot].IntegrityCheck(level));
    IRHINT_RETURN_NOT_OK(slices_[slot].CheckStructure(grid_, level));
    if (level == CheckLevel::kQuick) continue;
    // Both copies store every live object exactly once (HINT: one original
    // assignment or overflow; slices: one representative replica), so both
    // censuses must agree with the live-frequency table — catching a
    // desynchronized dual-copy state that queries would answer
    // inconsistently depending on which copy serves the element.
    if (hints_[slot].LiveOriginalCount() != live_counts_[slot]) {
      return Status::Corruption("tif_hint_slicing live count out of sync "
                                "with postings HINT");
    }
    if (slices_[slot].LiveObjectCount(grid_) != live_counts_[slot]) {
      return Status::Corruption("tif_hint_slicing live count out of sync "
                                "with sliced copy");
    }
  }
  return Status::OK();
}

Status TifHintSlicing::SaveTo(SnapshotWriter* writer) const {
  writer->BeginSection(kSectionMeta);
  writer->WriteI32(options_.num_bits);
  writer->WriteU32(options_.num_slices);
  writer->WriteU64(domain_end_);
  writer->WriteU32(grid_.num_slices());
  writer->WriteU64(grid_.domain_end());
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
  IRHINT_RETURN_NOT_OK(writer->EndSection());

  writer->BeginSection(kSectionAux);
  for (const SlicedPostingsIdSt& s : slices_) {
    s.SaveTo(writer);
  }
  return writer->EndSection();
}

Status TifHintSlicing::LoadFrom(SnapshotReader* reader) {
  auto meta = reader->OpenSection(kSectionMeta);
  IRHINT_RETURN_NOT_OK(meta.status());
  uint32_t grid_slices = 0;
  uint64_t grid_domain_end = 0;
  uint8_t built = 0;
  IRHINT_RETURN_NOT_OK(meta->ReadI32(&options_.num_bits));
  IRHINT_RETURN_NOT_OK(meta->ReadU32(&options_.num_slices));
  IRHINT_RETURN_NOT_OK(meta->ReadU64(&domain_end_));
  IRHINT_RETURN_NOT_OK(meta->ReadU32(&grid_slices));
  IRHINT_RETURN_NOT_OK(meta->ReadU64(&grid_domain_end));
  IRHINT_RETURN_NOT_OK(meta->ReadU8(&built));
  if (grid_slices == 0) {
    return Status::Corruption("tif_hint_slicing snapshot has zero slices");
  }
  grid_ = SliceGrid(grid_domain_end, grid_slices);
  built_ = built != 0;

  auto directory = reader->OpenSection(kSectionDirectory);
  IRHINT_RETURN_NOT_OK(directory.status());
  std::vector<ElementId> slot_elements;
  IRHINT_RETURN_NOT_OK(directory->ReadVector(&slot_elements));
  IRHINT_RETURN_NOT_OK(directory->ReadVector(&live_counts_));
  if (live_counts_.size() != slot_elements.size()) {
    return Status::Corruption(
        "tif_hint_slicing snapshot directory shape mismatch");
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

  auto aux = reader->OpenSection(kSectionAux);
  IRHINT_RETURN_NOT_OK(aux.status());
  slices_.assign(slot_elements.size(), {});
  for (SlicedPostingsIdSt& s : slices_) {
    IRHINT_RETURN_NOT_OK(s.LoadFrom(&aux.value()));
  }
  return Status::OK();
}

}  // namespace irhint

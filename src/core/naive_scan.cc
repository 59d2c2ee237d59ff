#include "core/naive_scan.h"

#include <algorithm>

#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace irhint {

Status NaiveScan::Build(const Corpus& corpus) {
  for (const Object& o : corpus.objects()) {
    IRHINT_RETURN_NOT_OK(Insert(o));
  }
  return Status::OK();
}

Status NaiveScan::Insert(const Object& object) {
  IRHINT_RETURN_NOT_OK(ValidateObject(object));
  if (slot_of_.contains(object.id)) {
    return Status::AlreadyExists("duplicate object id");
  }
  slot_of_.insert_or_assign(object.id,
                            static_cast<uint32_t>(objects_.size()));
  objects_.push_back(object);
  // Descriptions must be sorted for ContainsAll.
  std::sort(objects_.back().elements.begin(), objects_.back().elements.end());
  deleted_.push_back(false);
  return Status::OK();
}

Status NaiveScan::Erase(const Object& object) {
  const uint32_t* slot = slot_of_.find(object.id);
  if (slot == nullptr || deleted_[*slot]) {
    return Status::NotFound("object not present");
  }
  deleted_[*slot] = true;
  return Status::OK();
}

void NaiveScan::Query(const irhint::Query& query, std::vector<ObjectId>* out) const {
  out->clear();
  if (query.elements.empty()) return;
  std::vector<ElementId> sorted = query.elements;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < objects_.size(); ++i) {
    if (deleted_[i]) continue;
    const Object& o = objects_[i];
    if (Overlaps(o.interval, query.interval) && o.ContainsAll(sorted)) {
      out->push_back(o.id);
    }
  }
  QueryCounters local;
  local.divisions_visited = 1;  // the one flat object store
  local.candidates_verified = objects_.size();
  counters_.Accumulate(local);
}

size_t NaiveScan::MemoryUsageBytes() const {
  size_t bytes = objects_.capacity() * sizeof(Object);
  for (const Object& o : objects_) {
    bytes += o.elements.capacity() * sizeof(ElementId);
  }
  bytes += slot_of_.MemoryUsageBytes();
  bytes += deleted_.capacity() / 8;
  return bytes;
}

Status NaiveScan::IntegrityCheck(CheckLevel level) const {
  if (deleted_.size() != objects_.size() ||
      slot_of_.size() != objects_.size()) {
    return Status::Corruption("naive_scan directory shape mismatch");
  }
  if (level == CheckLevel::kQuick) return Status::OK();

  for (size_t i = 0; i < objects_.size(); ++i) {
    const Object& o = objects_[i];
    const uint32_t* slot = slot_of_.find(o.id);
    if (slot == nullptr || *slot != i) {
      return Status::Corruption("naive_scan slot map broken");
    }
    if (o.interval.st > o.interval.end) {
      return Status::Corruption("naive_scan object has inverted interval");
    }
    // ContainsAll merges over the sorted, duplicate-free description.
    for (size_t k = 1; k < o.elements.size(); ++k) {
      if (o.elements[k] <= o.elements[k - 1]) {
        return Status::Corruption("naive_scan description not sorted");
      }
    }
  }
  return Status::OK();
}

Status NaiveScan::SaveTo(SnapshotWriter* writer) const {
  writer->BeginSection(kSectionPayload);
  writer->WriteU64(objects_.size());
  for (size_t i = 0; i < objects_.size(); ++i) {
    const Object& o = objects_[i];
    writer->WriteU32(o.id);
    writer->WriteU64(o.interval.st);
    writer->WriteU64(o.interval.end);
    writer->WriteVector(o.elements);
    writer->WriteU8(deleted_[i] ? 1 : 0);
  }
  return writer->EndSection();
}

Status NaiveScan::LoadFrom(SnapshotReader* reader) {
  auto cursor = reader->OpenSection(kSectionPayload);
  IRHINT_RETURN_NOT_OK(cursor.status());
  SectionCursor& cur = cursor.value();
  uint64_t count;
  IRHINT_RETURN_NOT_OK(cur.ReadU64(&count));
  if (count > cur.remaining() / 21) {
    // 21 = minimum bytes per object record; rejects absurd counts.
    return Status::Corruption("naive_scan snapshot object count out of "
                              "bounds");
  }
  objects_.clear();
  objects_.reserve(static_cast<size_t>(count));
  deleted_.clear();
  deleted_.reserve(static_cast<size_t>(count));
  slot_of_.clear();
  slot_of_.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    Object o;
    uint8_t is_deleted;
    IRHINT_RETURN_NOT_OK(cur.ReadU32(&o.id));
    IRHINT_RETURN_NOT_OK(cur.ReadU64(&o.interval.st));
    IRHINT_RETURN_NOT_OK(cur.ReadU64(&o.interval.end));
    IRHINT_RETURN_NOT_OK(cur.ReadVector(&o.elements));
    IRHINT_RETURN_NOT_OK(cur.ReadU8(&is_deleted));
    slot_of_.insert_or_assign(o.id, static_cast<uint32_t>(objects_.size()));
    objects_.push_back(std::move(o));
    deleted_.push_back(is_deleted != 0);
  }
  return Status::OK();
}

}  // namespace irhint

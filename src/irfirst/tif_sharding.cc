#include "irfirst/tif_sharding.h"

#include <algorithm>
#include <limits>
#include <map>

#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace irhint {

void TifSharding::Shard::RebuildDerived(uint32_t impact_stride) {
  prefix_max_end.resize(entries.size());
  impact.clear();
  StoredTime running = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    running = std::max(running, entries[i].end);
    prefix_max_end[i] = running;
    if (i % impact_stride == 0) {
      impact.emplace_back(running, static_cast<uint32_t>(i));
    }
  }
}

size_t TifSharding::Shard::ScanStart(StoredTime qst) const {
  // Probe the impact list for the last sampled point still ending before
  // q.st, then refine linearly over the non-decreasing prefix-max array.
  size_t start = 0;
  auto it = std::lower_bound(
      impact.begin(), impact.end(), qst,
      [](const std::pair<StoredTime, uint32_t>& p, StoredTime v) {
        return p.first < v;
      });
  if (it != impact.begin()) start = std::prev(it)->second;
  while (start < prefix_max_end.size() && prefix_max_end[start] < qst) {
    ++start;
  }
  return start;
}

uint32_t TifSharding::SlotFor(ElementId e) {
  if (const uint32_t* slot = element_slot_.find(e)) return *slot;
  const uint32_t slot = static_cast<uint32_t>(lists_.size());
  element_slot_.insert_or_assign(e, slot);
  lists_.emplace_back();
  live_counts_.push_back(0);
  return slot;
}

void TifSharding::BuildShards(PostingsList&& postings,
                              ShardedList* list) const {
  std::sort(postings.begin(), postings.end(),
            [](const Posting& a, const Posting& b) {
              if (a.st != b.st) return a.st < b.st;
              return a.end < b.end;
            });

  // Patience chaining: place each posting on the chain with the largest
  // last end <= its end; this yields the minimal number of ideal
  // (staircase) shards.
  std::vector<Shard>& shards = list->shards;
  shards.clear();
  std::multimap<StoredTime, uint32_t> tails;  // last end -> shard
  for (const Posting& p : postings) {
    auto it = tails.upper_bound(p.end);
    if (it == tails.begin()) {
      const uint32_t shard = static_cast<uint32_t>(shards.size());
      shards.emplace_back();
      shards[shard].entries.push_back(p);
      tails.emplace(p.end, shard);
    } else {
      --it;
      const uint32_t shard = it->second;
      shards[shard].entries.push_back(p);
      tails.erase(it);
      tails.emplace(p.end, shard);
    }
  }

  // Cost-aware merging: probing a shard costs an impact lookup plus a
  // partial scan, so many tiny shards hurt; merge the two smallest shards
  // (relaxing the staircase property) until both the count cap and the
  // minimum-size threshold hold.
  auto smallest_two = [&shards](size_t* a, size_t* b) {
    *a = 0;
    for (size_t i = 1; i < shards.size(); ++i) {
      if (shards[i].entries.size() < shards[*a].entries.size()) *a = i;
    }
    *b = (*a == 0) ? 1 : 0;
    for (size_t i = 0; i < shards.size(); ++i) {
      if (i != *a &&
          shards[i].entries.size() < shards[*b].entries.size()) {
        *b = i;
      }
    }
  };
  auto needs_merge = [this, &shards]() {
    if (shards.size() <= 1) return false;
    if (shards.size() > options_.max_shards_per_list) return true;
    for (const Shard& s : shards) {
      if (s.entries.size() < options_.min_shard_size) return true;
    }
    return false;
  };
  while (needs_merge()) {
    size_t a, b;
    smallest_two(&a, &b);
    if (a > b) std::swap(a, b);
    Shard& dst = shards[a];
    Shard& src = shards[b];
    dst.entries.insert(dst.entries.end(), src.entries.begin(),
                       src.entries.end());
    std::sort(dst.entries.begin(), dst.entries.end(),
              [](const Posting& x, const Posting& y) {
                if (x.st != y.st) return x.st < y.st;
                return x.end < y.end;
              });
    shards.erase(shards.begin() + b);
  }

  for (Shard& s : shards) s.RebuildDerived(options_.impact_stride);
}

Status TifSharding::Build(const Corpus& corpus) {
  if (corpus.domain_end() >= std::numeric_limits<StoredTime>::max()) {
    return Status::InvalidArgument("domain exceeds 32-bit stored endpoints");
  }
  built_ = true;
  element_slot_.reserve(corpus.dictionary().size());

  // Group postings per element, then shard each list.
  std::vector<PostingsList> grouped;
  for (const Object& o : corpus.objects()) {
    const Posting posting{o.id, static_cast<StoredTime>(o.interval.st),
                          static_cast<StoredTime>(o.interval.end)};
    for (ElementId e : o.elements) {
      const uint32_t slot = SlotFor(e);
      if (slot >= grouped.size()) grouped.resize(slot + 1);
      grouped[slot].push_back(posting);
      ++live_counts_[slot];
    }
  }
  for (size_t slot = 0; slot < grouped.size(); ++slot) {
    BuildShards(std::move(grouped[slot]), &lists_[slot]);
  }
  return Status::OK();
}

Status TifSharding::Insert(const Object& object) {
  IRHINT_RETURN_NOT_OK(ValidateObject(object));
  if (!built_) return Status::InvalidArgument("index not built");
  if (object.interval.end >= std::numeric_limits<StoredTime>::max()) {
    return Status::OutOfDomain("interval exceeds 32-bit stored endpoints");
  }
  const Posting posting{object.id,
                        static_cast<StoredTime>(object.interval.st),
                        static_cast<StoredTime>(object.interval.end)};
  for (ElementId e : object.elements) {
    const uint32_t slot = SlotFor(e);
    std::vector<Shard>& shards = lists_[slot].shards;
    if (shards.empty()) shards.emplace_back();
    // Pick the shard with the largest max end <= the new end (least
    // staircase damage); fall back to the one with the smallest max end.
    size_t best = 0;
    bool found = false;
    StoredTime best_end = 0;
    size_t fallback = 0;
    StoredTime fallback_end = std::numeric_limits<StoredTime>::max();
    for (size_t i = 0; i < shards.size(); ++i) {
      const StoredTime tail = shards[i].prefix_max_end.empty()
                                  ? 0
                                  : shards[i].prefix_max_end.back();
      if (tail <= posting.end && (!found || tail >= best_end)) {
        best = i;
        best_end = tail;
        found = true;
      }
      if (tail < fallback_end) {
        fallback = i;
        fallback_end = tail;
      }
    }
    Shard& shard = shards[found ? best : fallback];
    const auto pos = std::upper_bound(
        shard.entries.begin(), shard.entries.end(), posting,
        [](const Posting& a, const Posting& b) {
          if (a.st != b.st) return a.st < b.st;
          return a.end < b.end;
        });
    shard.entries.insert(pos, posting);
    shard.RebuildDerived(options_.impact_stride);
    ++live_counts_[slot];
  }
  return Status::OK();
}

Status TifSharding::Erase(const Object& object) {
  size_t tombstoned = 0;
  for (ElementId e : object.elements) {
    const uint32_t* slot = element_slot_.find(e);
    if (slot == nullptr) continue;
    // Locating an entry resembles querying the object's own interval
    // (Section 5.5): probe each shard and scan the whole range that could
    // overlap [o.t_st, o.t_end] — for long-lived objects this range is
    // large, which is what makes sharded deletion the most expensive in
    // the paper's Table 7.
    for (Shard& shard : lists_[*slot].shards) {
      bool done = false;
      for (size_t i = shard.ScanStart(static_cast<StoredTime>(
               object.interval.st));
           i < shard.entries.size() &&
           shard.entries[i].st <= object.interval.end;
           ++i) {
        if (shard.entries[i].id == object.id) {
          shard.entries[i].id = kTombstoneId;
          --live_counts_[*slot];
          ++tombstoned;
          done = true;
          break;
        }
      }
      if (done) break;
    }
  }
  return tombstoned > 0 ? Status::OK()
                        : Status::NotFound("object not present");
}

uint64_t TifSharding::Frequency(ElementId e) const {
  const uint32_t* slot = element_slot_.find(e);
  return slot != nullptr ? live_counts_[*slot] : 0;
}

size_t TifSharding::NumShards(ElementId e) const {
  const uint32_t* slot = element_slot_.find(e);
  return slot != nullptr ? lists_[*slot].shards.size() : 0;
}

template <typename Emit>
void TifSharding::ScanList(const ShardedList& list, const Interval& q,
                           Emit&& emit) const {
  const StoredTime qst = static_cast<StoredTime>(q.st);
  for (const Shard& shard : list.shards) {
    for (size_t i = shard.ScanStart(qst);
         i < shard.entries.size() && shard.entries[i].st <= q.end; ++i) {
      const Posting& p = shard.entries[i];
      if (p.id != kTombstoneId && p.end >= q.st) emit(p);
    }
  }
}

void TifSharding::Query(const irhint::Query& query,
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

  std::vector<ObjectId> candidates;
  ScanList(lists_[*first_slot], query.interval,
           [&candidates](const Posting& p) { candidates.push_back(p.id); });
  std::sort(candidates.begin(), candidates.end());

  std::vector<ObjectId> next;
  for (size_t i = 1; i < elements.size() && !candidates.empty(); ++i) {
    const uint32_t* slot = element_slot_.find(elements[i]);
    if (slot == nullptr) {
      candidates.clear();
      break;
    }
    next.clear();
    ScanList(lists_[*slot], query.interval, [&](const Posting& p) {
      if (std::binary_search(candidates.begin(), candidates.end(), p.id)) {
        next.push_back(p.id);
      }
    });
    std::sort(next.begin(), next.end());
    candidates.swap(next);
  }
  out->swap(candidates);
}

size_t TifSharding::MemoryUsageBytes() const {
  size_t bytes = element_slot_.MemoryUsageBytes();
  bytes += lists_.capacity() * sizeof(ShardedList);
  bytes += live_counts_.capacity() * sizeof(uint64_t);
  for (const ShardedList& list : lists_) {
    bytes += list.shards.capacity() * sizeof(Shard);
    for (const Shard& shard : list.shards) {
      bytes += shard.entries.capacity() * sizeof(Posting);
      bytes += shard.prefix_max_end.capacity() * sizeof(StoredTime);
      bytes += shard.impact.capacity() *
               sizeof(std::pair<StoredTime, uint32_t>);
    }
  }
  return bytes;
}

Status TifSharding::IntegrityCheck(CheckLevel level) const {
  if (lists_.size() != live_counts_.size() ||
      lists_.size() != element_slot_.size()) {
    return Status::Corruption("tif_sharding directory shape mismatch");
  }
  if ((built_ || !lists_.empty()) && options_.impact_stride == 0) {
    return Status::Corruption("tif_sharding impact stride is zero");
  }
  Status status = Status::OK();
  std::vector<bool> slot_seen(lists_.size(), false);
  element_slot_.ForEach([&](const ElementId&, const uint32_t& slot) {
    if (!status.ok()) return;
    if (slot >= lists_.size() || slot_seen[slot]) {
      status = Status::Corruption("tif_sharding element slot map broken");
      return;
    }
    slot_seen[slot] = true;
  });
  IRHINT_RETURN_NOT_OK(status);
  if (level == CheckLevel::kQuick) return Status::OK();

  for (size_t slot = 0; slot < lists_.size(); ++slot) {
    uint64_t live = 0;
    for (const Shard& shard : lists_[slot].shards) {
      if (shard.prefix_max_end.size() != shard.entries.size()) {
        return Status::Corruption("tif_sharding prefix-max array shape "
                                  "mismatch");
      }
      // Replay RebuildDerived: the stored prefix-max and impact samples
      // must match a fresh recomputation (ScanStart trusts both).
      StoredTime running = 0;
      size_t next_impact = 0;
      for (size_t i = 0; i < shard.entries.size(); ++i) {
        const Posting& p = shard.entries[i];
        if (p.st > p.end) {
          return Status::Corruption("tif_sharding entry has inverted "
                                    "interval");
        }
        if (i > 0) {
          const Posting& prev = shard.entries[i - 1];
          if (p.st < prev.st || (p.st == prev.st && p.end < prev.end)) {
            return Status::Corruption("tif_sharding shard not sorted by "
                                      "(st, end)");
          }
        }
        running = std::max(running, p.end);
        if (shard.prefix_max_end[i] != running) {
          return Status::Corruption("tif_sharding prefix-max array stale");
        }
        if (i % options_.impact_stride == 0) {
          if (next_impact >= shard.impact.size() ||
              shard.impact[next_impact].first != running ||
              shard.impact[next_impact].second != i) {
            return Status::Corruption("tif_sharding impact list stale");
          }
          ++next_impact;
        }
        if (p.id != kTombstoneId) ++live;
      }
      if (next_impact != shard.impact.size()) {
        return Status::Corruption("tif_sharding impact list stale");
      }
    }
    if (live != live_counts_[slot]) {
      return Status::Corruption("tif_sharding live count mismatch");
    }
  }
  return Status::OK();
}

Status TifSharding::SaveTo(SnapshotWriter* writer) const {
  writer->BeginSection(kSectionMeta);
  writer->WriteU32(options_.max_shards_per_list);
  writer->WriteU32(options_.min_shard_size);
  writer->WriteU32(options_.impact_stride);
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

  // Only shard entries are persisted; the prefix-max and impact arrays are
  // derived and rebuilt on load.
  writer->BeginSection(kSectionPayload);
  for (const ShardedList& list : lists_) {
    writer->WriteU64(list.shards.size());
    for (const Shard& shard : list.shards) {
      writer->WriteVector(shard.entries);
    }
  }
  return writer->EndSection();
}

Status TifSharding::LoadFrom(SnapshotReader* reader) {
  auto meta = reader->OpenSection(kSectionMeta);
  IRHINT_RETURN_NOT_OK(meta.status());
  uint8_t built = 0;
  IRHINT_RETURN_NOT_OK(meta->ReadU32(&options_.max_shards_per_list));
  IRHINT_RETURN_NOT_OK(meta->ReadU32(&options_.min_shard_size));
  IRHINT_RETURN_NOT_OK(meta->ReadU32(&options_.impact_stride));
  IRHINT_RETURN_NOT_OK(meta->ReadU8(&built));
  if (options_.impact_stride == 0) {
    return Status::Corruption("tif_sharding snapshot has zero stride");
  }
  built_ = built != 0;

  auto directory = reader->OpenSection(kSectionDirectory);
  IRHINT_RETURN_NOT_OK(directory.status());
  std::vector<ElementId> slot_elements;
  IRHINT_RETURN_NOT_OK(directory->ReadVector(&slot_elements));
  IRHINT_RETURN_NOT_OK(directory->ReadVector(&live_counts_));
  if (live_counts_.size() != slot_elements.size()) {
    return Status::Corruption(
        "tif_sharding snapshot directory shape mismatch");
  }
  element_slot_.clear();
  element_slot_.reserve(slot_elements.size());
  for (uint32_t slot = 0; slot < slot_elements.size(); ++slot) {
    element_slot_.insert_or_assign(slot_elements[slot], slot);
  }

  auto payload = reader->OpenSection(kSectionPayload);
  IRHINT_RETURN_NOT_OK(payload.status());
  lists_.assign(slot_elements.size(), {});
  for (ShardedList& list : lists_) {
    uint64_t num_shards = 0;
    IRHINT_RETURN_NOT_OK(payload->ReadU64(&num_shards));
    if (num_shards > payload->remaining() / 8) {
      return Status::Corruption(
          "tif_sharding snapshot shard count out of bounds");
    }
    list.shards.resize(static_cast<size_t>(num_shards));
    for (Shard& shard : list.shards) {
      IRHINT_RETURN_NOT_OK(payload->ReadVector(&shard.entries));
      shard.RebuildDerived(options_.impact_stride);
    }
  }
  return Status::OK();
}

}  // namespace irhint

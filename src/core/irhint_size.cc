#include "core/irhint_size.h"

#include <algorithm>
#include <limits>

#include "common/checked_math.h"
#include "hint/cost_model.h"

namespace irhint {

template <typename Fn>
void IrHintSize::ForAssignments(const Interval& interval, Fn&& fn) {
  uint64_t first, last;
  mapper_.CellSpan(interval, &first, &last);
  AssignToPartitions(m_, first, last, [&](const PartitionRef& ref) {
    const bool ends_inside = (last >> (m_ - ref.level)) == ref.index;
    const SubdivRole role = ref.original ? (ends_inside ? kOin : kOaft)
                                         : (ends_inside ? kRin : kRaft);
    fn(ref, role);
  });
}

void IrHintSize::SortedInsert(FlatArray<Posting>* entries, SubdivRole role,
                              const Posting& posting) {
  // Beneficial sorting: O_in/O_aft ascending by start, R_in descending by
  // end, R_aft unsorted (no comparisons ever reach it). The search runs on
  // the read-only span; insert() materializes a mapped view if needed.
  const std::span<const Posting> view = entries->span();
  size_t pos;
  switch (role) {
    case kOin:
    case kOaft:
      pos = static_cast<size_t>(
          std::upper_bound(view.begin(), view.end(), posting,
                           [](const Posting& a, const Posting& b) {
                             return a.st < b.st;
                           }) -
          view.begin());
      break;
    case kRin:
      pos = static_cast<size_t>(
          std::upper_bound(view.begin(), view.end(), posting,
                           [](const Posting& a, const Posting& b) {
                             return a.end > b.end;
                           }) -
          view.begin());
      break;
    case kRaft:
    default:
      pos = view.size();
      break;
  }
  entries->insert(pos, posting);
}

void IrHintSize::ScanIntervals(const FlatArray<Posting>& entries,
                               SubdivRole role, CheckMode mode,
                               const Interval& q,
                               std::vector<ObjectId>* candidates) {
  const size_t n = entries.size();
  switch (mode) {
    case CheckMode::kNone:
      for (size_t i = 0; i < n; ++i) {
        if (entries[i].id != kTombstoneId) candidates->push_back(entries[i].id);
      }
      break;
    case CheckMode::kStartOnly:  // i.end >= q.st
      if (role == kRin) {
        for (size_t i = 0; i < n && entries[i].end >= q.st; ++i) {
          if (entries[i].id != kTombstoneId) {
            candidates->push_back(entries[i].id);
          }
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (entries[i].end >= q.st && entries[i].id != kTombstoneId) {
            candidates->push_back(entries[i].id);
          }
        }
      }
      break;
    case CheckMode::kEndOnly:  // i.st <= q.end
      if (role == kOin || role == kOaft) {
        for (size_t i = 0; i < n && entries[i].st <= q.end; ++i) {
          if (entries[i].id != kTombstoneId) {
            candidates->push_back(entries[i].id);
          }
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (entries[i].st <= q.end && entries[i].id != kTombstoneId) {
            candidates->push_back(entries[i].id);
          }
        }
      }
      break;
    case CheckMode::kBoth:
      if (role == kOin || role == kOaft) {
        for (size_t i = 0; i < n && entries[i].st <= q.end; ++i) {
          if (entries[i].end >= q.st && entries[i].id != kTombstoneId) {
            candidates->push_back(entries[i].id);
          }
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (entries[i].st <= q.end && entries[i].end >= q.st &&
              entries[i].id != kTombstoneId) {
            candidates->push_back(entries[i].id);
          }
        }
      }
      break;
  }
}

Status IrHintSize::Build(const Corpus& corpus) {
  if (corpus.domain_end() >= std::numeric_limits<StoredTime>::max()) {
    return Status::InvalidArgument("domain exceeds 32-bit stored endpoints");
  }
  int m = options_.num_bits;
  if (m < 0) {
    std::vector<IntervalRecord> records;
    records.reserve(corpus.size());
    for (const Object& o : corpus.objects()) {
      records.push_back(IntervalRecord{o.id, o.interval});
    }
    // The size variant's per-division probe (one interval scan feeding
    // merge intersections) is cheaper than the performance variant's
    // multi-list tIF probe but still heavier than plain HINT's.
    CostModelOptions model;
    model.partition_probe_cost = 32.0;
    m = ChooseHintBits(records, corpus.domain_end(), model);
  }
  if (m > 30) return Status::InvalidArgument("num_bits must be <= 30");
  m_ = m;
  mapper_ = DomainMapper(corpus.domain_end(), m_);
  levels_.Init(m_);
  frequencies_.assign(corpus.dictionary().frequencies().begin(),
                      corpus.dictionary().frequencies().end());
  built_ = true;
  for (const Object& o : corpus.objects()) {
    if (o.interval.end > corpus.domain_end()) {
      return Status::OutOfDomain("interval exceeds declared domain");
    }
    if (o.interval.st > o.interval.end) {
      return Status::InvalidArgument("interval start exceeds end");
    }
    // Bulk path: append unsorted (sorted once below) and fill the deltas of
    // the id indexes (compacted once below).
    const Posting posting{o.id, static_cast<StoredTime>(o.interval.st),
                          static_cast<StoredTime>(o.interval.end)};
    ForAssignments(o.interval, [&](const PartitionRef& ref, SubdivRole role) {
      Partition& part = levels_.FindOrCreate(ref.level, ref.index);
      part.intervals[role].push_back(posting);
      if (role == kOin || role == kOaft) {
        part.originals_index.Add(o.id, o.elements);
      } else {
        part.replicas_index.Add(o.id, o.elements);
      }
    });
  }
  levels_.ForEachMutable([](int, uint64_t, Partition& part) {
    // Beneficial sorting per subdivision (R_aft needs no order).
    const auto sort_with = [](FlatArray<Posting>& list, auto cmp) {
      std::span<Posting> s = list.MutableSpan();
      std::sort(s.begin(), s.end(), cmp);
    };
    sort_with(part.intervals[kOin],
              [](const Posting& a, const Posting& b) { return a.st < b.st; });
    sort_with(part.intervals[kOaft],
              [](const Posting& a, const Posting& b) { return a.st < b.st; });
    sort_with(part.intervals[kRin],
              [](const Posting& a, const Posting& b) { return a.end > b.end; });
    for (FlatArray<Posting>& list : part.intervals) list.shrink_to_fit();
    part.originals_index.Finalize();
    part.replicas_index.Finalize();
  });
  return Status::OK();
}

Status IrHintSize::Insert(const Object& object) {
  IRHINT_RETURN_NOT_OK(ValidateObject(object));
  if (!built_) return Status::InvalidArgument("index not built");
  if (object.interval.end >=
      std::numeric_limits<StoredTime>::max()) {
    return Status::OutOfDomain("interval exceeds 32-bit stored endpoints");
  }
  if (object.interval.end > mapper_.domain_end()) {
    overflow_.push_back(object);
    std::sort(overflow_.back().elements.begin(),
              overflow_.back().elements.end());
    for (ElementId e : object.elements) {
      // GrowToFit widens before the increment; the unchecked `e + 1`
      // wraps to 0 at the max ElementId (the PR 4 bug class).
      if (e >= frequencies_.size()) {
        frequencies_.resize(GrowToFit(e), 0);
      }
      ++frequencies_[e];
    }
    return Status::OK();
  }
  const Posting posting{object.id,
                        static_cast<StoredTime>(object.interval.st),
                        static_cast<StoredTime>(object.interval.end)};
  ForAssignments(object.interval,
                 [&](const PartitionRef& ref, SubdivRole role) {
                   Partition& part =
                       levels_.FindOrCreate(ref.level, ref.index);
                   SortedInsert(&part.intervals[role], role, posting);
                   if (role == kOin || role == kOaft) {
                     part.originals_index.Add(object.id, object.elements);
                   } else {
                     part.replicas_index.Add(object.id, object.elements);
                   }
                 });
  for (ElementId e : object.elements) {
    if (e >= frequencies_.size()) {
      frequencies_.resize(GrowToFit(e), 0);
    }
    ++frequencies_[e];
  }
  return Status::OK();
}

Status IrHintSize::Erase(const Object& object) {
  if (!built_) return Status::InvalidArgument("index not built");
  if (object.interval.end > mapper_.domain_end()) {
    for (Object& o : overflow_) {
      if (o.id == object.id) {
        o.id = kTombstoneId;
        for (ElementId e : object.elements) {
          if (e < frequencies_.size() && frequencies_[e] > 0) {
            --frequencies_[e];
          }
        }
        return Status::OK();
      }
    }
    return Status::NotFound("object not present");
  }
  size_t tombstoned = 0;
  ForAssignments(object.interval,
                 [&](const PartitionRef& ref, SubdivRole role) {
                   Partition* part = levels_.Find(ref.level, ref.index);
                   if (part == nullptr) return;
                   FlatArray<Posting>& list = part->intervals[role];
                   for (size_t i = 0; i < list.size(); ++i) {
                     if (list[i].id == object.id) {
                       // Materialize only on a hit so misses leave mapped
                       // subdivisions untouched.
                       list.MutableData()[i].id = kTombstoneId;
                       ++tombstoned;
                       break;
                     }
                   }
                   DivisionIdIndex& index = (role == kOin || role == kOaft)
                                                ? part->originals_index
                                                : part->replicas_index;
                   index.Tombstone(object.id, object.elements);
                 });
  if (tombstoned == 0) return Status::NotFound("object not present");
  for (ElementId e : object.elements) {
    if (e < frequencies_.size() && frequencies_[e] > 0) --frequencies_[e];
  }
  return Status::OK();
}

void IrHintSize::Query(const irhint::Query& query, std::vector<ObjectId>* out) const {
  out->clear();
  if (!built_ || query.elements.empty()) return;
  if (query.interval.st > query.interval.end) return;

  std::vector<ElementId> elements = query.elements;
  std::sort(elements.begin(), elements.end(),
            [this](ElementId a, ElementId b) {
              const uint64_t fa = Frequency(a);
              const uint64_t fb = Frequency(b);
              if (fa != fb) return fa < fb;
              return a < b;
            });

  DivisionQueryScratch& scratch =
      DivisionQueryScratch::ForQuery(counters_.enabled());
  std::vector<ObjectId>& candidates = scratch.temporal;
  if (query.interval.st <= mapper_.domain_end()) {
  TraversalState state(m_, mapper_.Cell(query.interval.st),
                       mapper_.Cell(query.interval.end));
  for (int level = m_; level >= 0; --level) {
    const LevelPlan plan = state.PlanLevel(level);
    levels_.ForRange(
        level, plan.f, plan.l, [&](uint64_t j, const Partition& part) {
          CheckMode originals_mode;
          bool scan_replicas = false;
          CheckMode replicas_mode = CheckMode::kNone;
          if (j == plan.f) {
            originals_mode = plan.first_originals;
            scan_replicas = true;
            replicas_mode = plan.first_replicas;
          } else if (j == plan.l) {
            originals_mode = plan.last_originals;
          } else {
            originals_mode = CheckMode::kNone;
          }

          // Step 1 (range query) + sort + step 2 (merge intersections),
          // per division — Algorithm 6. Divisions requiring no temporal
          // checks skip step 1 entirely: the candidate set is the whole
          // division, so the answer is the intersection of the element
          // lists themselves.
          if (originals_mode == CheckMode::kNone) {
            part.originals_index.IntersectLists(elements, &scratch, out);
          } else {
            const auto [in_mode, aft_mode] =
                SplitOriginalsMode(originals_mode);
            candidates.clear();
            ScanIntervals(part.intervals[kOin], kOin, in_mode,
                          query.interval, &candidates);
            ScanIntervals(part.intervals[kOaft], kOaft, aft_mode,
                          query.interval, &candidates);
            if (scratch.count) {
              scratch.counters.postings_scanned +=
                  part.intervals[kOin].size() + part.intervals[kOaft].size();
            }
            if (!candidates.empty()) {
              std::sort(candidates.begin(), candidates.end());
              part.originals_index.Intersect(candidates, elements, &scratch,
                                             out);
            }
          }
          if (scan_replicas) {
            if (replicas_mode == CheckMode::kNone) {
              part.replicas_index.IntersectLists(elements, &scratch, out);
            } else {
              const auto [rin_mode, raft_mode] =
                  SplitReplicasMode(replicas_mode);
              candidates.clear();
              ScanIntervals(part.intervals[kRin], kRin, rin_mode,
                            query.interval, &candidates);
              ScanIntervals(part.intervals[kRaft], kRaft, raft_mode,
                            query.interval, &candidates);
              if (scratch.count) {
                scratch.counters.postings_scanned +=
                    part.intervals[kRin].size() + part.intervals[kRaft].size();
              }
              if (!candidates.empty()) {
                std::sort(candidates.begin(), candidates.end());
                part.replicas_index.Intersect(candidates, elements, &scratch,
                                              out);
              }
            }
          }
        });
    state.Descend(level);
  }
  }

  // Overflow objects: exhaustive check.
  if (!overflow_.empty()) {
    std::vector<ElementId> by_id = query.elements;
    std::sort(by_id.begin(), by_id.end());
    for (const Object& o : overflow_) {
      if (o.id != kTombstoneId && Overlaps(o.interval, query.interval) &&
          o.ContainsAll(by_id)) {
        out->push_back(o.id);
      }
    }
    scratch.counters.candidates_verified += overflow_.size();
  }
  counters_.Accumulate(scratch.counters);
}

size_t IrHintSize::MemoryUsageBytes() const {
  size_t bytes = levels_.DirectoryBytes();
  bytes += overflow_.capacity() * sizeof(Object);
  for (const Object& o : overflow_) {
    bytes += o.elements.capacity() * sizeof(ElementId);
  }
  bytes += frequencies_.capacity() * sizeof(uint64_t);
  levels_.ForEach([&bytes](int, uint64_t, const Partition& part) {
    for (const FlatArray<Posting>& list : part.intervals) {
      bytes += list.MemoryUsageBytes();
    }
    bytes += part.originals_index.MemoryUsageBytes();
    bytes += part.replicas_index.MemoryUsageBytes();
  });
  return bytes;
}

Status IrHintSize::IntegrityCheck(CheckLevel level) const {
  if (!built_) {
    if (levels_.num_levels() != 0 || !overflow_.empty()) {
      return Status::Corruption("irhint-size unbuilt index holds data");
    }
    return Status::OK();
  }
  if (m_ < 0 || m_ > 30) {
    return Status::Corruption("irhint-size m out of range");
  }
  if (levels_.num_levels() != m_ + 1) {
    return Status::Corruption("irhint-size level directory shape mismatch");
  }
  const uint64_t element_limit =
      frequencies_.empty() ? DivisionPostings<IdEntry>::kNoElementLimit
                           : static_cast<uint64_t>(frequencies_.size());
  for (int lvl = 0; lvl <= m_; ++lvl) {
    const std::vector<uint64_t>& keys = levels_.keys(lvl);
    if (keys.size() != levels_.parts(lvl).size()) {
      return Status::Corruption("irhint-size partition directory mismatch");
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i > 0 && keys[i] <= keys[i - 1]) {
        return Status::Corruption("irhint-size partition keys not sorted");
      }
      if ((keys[i] >> lvl) != 0) {
        return Status::Corruption("irhint-size partition key out of level "
                                  "range");
      }
    }
  }

  Status status = Status::OK();
  // Live id-index entries of the original divisions per element; reconciled
  // against frequencies_ below.
  std::vector<uint64_t> census(frequencies_.size(), 0);
  std::vector<ObjectId> original_ids;
  std::vector<ObjectId> replica_ids;
  levels_.ForEach([&](int lvl, uint64_t key, const Partition& part) {
    if (!status.ok()) return;
    status = part.originals_index.CheckStructure(level, element_limit);
    if (!status.ok()) return;
    status = part.replicas_index.CheckStructure(level, element_limit);
    if (!status.ok()) return;
    if (level == CheckLevel::kQuick) return;

    // Interval stores: beneficial sorting, in-domain endpoints, and the
    // canonical HINT assignment (tombstones keep their endpoints, so the
    // assignment must hold for them too).
    original_ids.clear();
    replica_ids.clear();
    for (int role = 0; role < 4; ++role) {
      const FlatArray<Posting>& list = part.intervals[role];
      for (size_t i = 0; i < list.size(); ++i) {
        const Posting& p = list[i];
        if (p.st > p.end) {
          status = Status::Corruption("irhint-size interval entry inverted");
          return;
        }
        if (p.end > mapper_.domain_end()) {
          status = Status::Corruption("irhint-size interval entry exceeds "
                                      "declared domain");
          return;
        }
        if (i > 0) {
          if ((role == kOin || role == kOaft) && p.st < list[i - 1].st) {
            status = Status::Corruption("irhint-size O-division not "
                                        "start-sorted");
            return;
          }
          if (role == kRin && p.end > list[i - 1].end) {
            status = Status::Corruption("irhint-size R_in not end-sorted "
                                        "descending");
            return;
          }
        }
        uint64_t first, last;
        mapper_.CellSpan(Interval(p.st, p.end), &first, &last);
        bool matched = false;
        AssignToPartitions(m_, first, last, [&](const PartitionRef& ref) {
          if (ref.level != lvl || ref.index != key) return;
          const bool ends_inside = (last >> (m_ - ref.level)) == ref.index;
          const int expected = ref.original ? (ends_inside ? kOin : kOaft)
                                            : (ends_inside ? kRin : kRaft);
          if (expected == role) matched = true;
        });
        if (!matched) {
          status = Status::Corruption("irhint-size interval stored in "
                                      "non-canonical division");
          return;
        }
        if (p.id == kTombstoneId) continue;
        ((role == kOin || role == kOaft) ? original_ids : replica_ids)
            .push_back(p.id);
      }
    }
    std::sort(original_ids.begin(), original_ids.end());
    std::sort(replica_ids.begin(), replica_ids.end());

    // Referential integrity: every live id-index entry must refer to a
    // live interval of the same division (a dangling id would surface
    // phantom results under CheckMode::kNone probes).
    const auto check_index = [&](const DivisionIdIndex& index,
                                 const std::vector<ObjectId>& ids,
                                 bool count, const char* what) {
      return index.ForEachEntry([&](ElementId e, const IdEntry& entry) {
        if (entry.id == kTombstoneId) return Status::OK();
        if (!std::binary_search(ids.begin(), ids.end(), entry.id)) {
          return Status::Corruption(what);
        }
        if (count && e < census.size()) ++census[e];
        return Status::OK();
      });
    };
    status = check_index(part.originals_index, original_ids, true,
                         "irhint-size originals id entry dangles");
    if (!status.ok()) return;
    status = check_index(part.replicas_index, replica_ids, false,
                         "irhint-size replicas id entry dangles");
  });
  IRHINT_RETURN_NOT_OK(status);
  if (level == CheckLevel::kQuick) return Status::OK();

  for (const Object& o : overflow_) {
    if (o.interval.st > o.interval.end) {
      return Status::Corruption("irhint-size overflow object has inverted "
                                "interval");
    }
    if (o.interval.end <= mapper_.domain_end()) {
      return Status::Corruption("irhint-size overflow object fits the "
                                "indexed domain");
    }
    for (size_t k = 1; k < o.elements.size(); ++k) {
      if (o.elements[k] <= o.elements[k - 1]) {
        return Status::Corruption("irhint-size overflow description not "
                                  "sorted");
      }
    }
    if (o.id == kTombstoneId) continue;
    for (ElementId e : o.elements) {
      if (e < census.size()) ++census[e];
    }
  }
  for (size_t e = 0; e < frequencies_.size(); ++e) {
    if (census[e] != frequencies_[e]) {
      return Status::Corruption("irhint-size frequency table out of sync "
                                "with live postings");
    }
  }
  return Status::OK();
}

Status IrHintSize::SaveTo(SnapshotWriter* writer) const {
  writer->BeginSection(kSectionMeta);
  writer->WriteI32(options_.num_bits);
  writer->WriteI32(m_);
  writer->WriteU64(mapper_.domain_end());
  writer->WriteU8(built_ ? 1 : 0);
  IRHINT_RETURN_NOT_OK(writer->EndSection());

  writer->BeginSection(kSectionPayload);
  for (int level = 0; level < levels_.num_levels(); ++level) {
    writer->WriteVector(levels_.keys(level));
    for (const Partition& part : levels_.parts(level)) {
      for (const FlatArray<Posting>& list : part.intervals) {
        writer->WriteFlatArray(list);
      }
      part.originals_index.SaveTo(writer);
      part.replicas_index.SaveTo(writer);
    }
  }
  IRHINT_RETURN_NOT_OK(writer->EndSection());

  writer->BeginSection(kSectionAux);
  writer->WriteU64(overflow_.size());
  for (const Object& o : overflow_) {
    writer->WriteU32(o.id);
    writer->WriteU64(o.interval.st);
    writer->WriteU64(o.interval.end);
    writer->WriteVector(o.elements);
  }
  writer->WriteVector(frequencies_);
  return writer->EndSection();
}

Status IrHintSize::LoadFrom(SnapshotReader* reader) {
  auto meta = reader->OpenSection(kSectionMeta);
  IRHINT_RETURN_NOT_OK(meta.status());
  uint64_t domain_end = 0;
  uint8_t built = 0;
  IRHINT_RETURN_NOT_OK(meta->ReadI32(&options_.num_bits));
  IRHINT_RETURN_NOT_OK(meta->ReadI32(&m_));
  IRHINT_RETURN_NOT_OK(meta->ReadU64(&domain_end));
  IRHINT_RETURN_NOT_OK(meta->ReadU8(&built));
  if (m_ < 0 || m_ > 30) {
    return Status::Corruption("irhint snapshot has invalid m");
  }
  mapper_ = DomainMapper(domain_end, m_);
  built_ = built != 0;

  auto payload = reader->OpenSection(kSectionPayload);
  IRHINT_RETURN_NOT_OK(payload.status());
  levels_.Init(m_);
  for (int level = 0; level <= m_; ++level) {
    std::vector<uint64_t> keys;
    IRHINT_RETURN_NOT_OK(payload->ReadVector(&keys));
    std::vector<Partition> parts(keys.size());
    for (Partition& part : parts) {
      for (FlatArray<Posting>& list : part.intervals) {
        IRHINT_RETURN_NOT_OK(payload->ReadFlatArray(&list));
      }
      IRHINT_RETURN_NOT_OK(part.originals_index.LoadFrom(&payload.value()));
      IRHINT_RETURN_NOT_OK(part.replicas_index.LoadFrom(&payload.value()));
    }
    levels_.RestoreLevel(level, std::move(keys), std::move(parts));
  }

  auto aux = reader->OpenSection(kSectionAux);
  IRHINT_RETURN_NOT_OK(aux.status());
  uint64_t num_overflow;
  IRHINT_RETURN_NOT_OK(aux->ReadU64(&num_overflow));
  if (num_overflow > aux->remaining() / 28) {
    // 28 = minimum bytes per overflow object record.
    return Status::Corruption("irhint snapshot overflow count out of bounds");
  }
  overflow_.clear();
  overflow_.reserve(static_cast<size_t>(num_overflow));
  for (uint64_t i = 0; i < num_overflow; ++i) {
    Object o;
    IRHINT_RETURN_NOT_OK(aux->ReadU32(&o.id));
    IRHINT_RETURN_NOT_OK(aux->ReadU64(&o.interval.st));
    IRHINT_RETURN_NOT_OK(aux->ReadU64(&o.interval.end));
    IRHINT_RETURN_NOT_OK(aux->ReadVector(&o.elements));
    overflow_.push_back(std::move(o));
  }
  IRHINT_RETURN_NOT_OK(aux->ReadVector(&frequencies_));
  return Status::OK();
}

}  // namespace irhint

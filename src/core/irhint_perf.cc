#include "core/irhint_perf.h"

#include <algorithm>
#include <limits>

#include "common/checked_math.h"
#include "hint/cost_model.h"

namespace irhint {

template <typename Fn>
void IrHintPerf::ForAssignments(const Interval& interval, Fn&& fn) {
  uint64_t first, last;
  mapper_.CellSpan(interval, &first, &last);
  AssignToPartitions(m_, first, last, [&](const PartitionRef& ref) {
    const bool ends_inside = (last >> (m_ - ref.level)) == ref.index;
    const SubdivRole role = ref.original ? (ends_inside ? kOin : kOaft)
                                         : (ends_inside ? kRin : kRaft);
    fn(ref, role);
  });
}

Status IrHintPerf::Build(const Corpus& corpus) {
  if (corpus.domain_end() >=
      std::numeric_limits<StoredTime>::max()) {
    return Status::InvalidArgument("domain exceeds 32-bit stored endpoints");
  }
  int m = options_.num_bits;
  if (m < 0) {
    // The time-first design lets the interval-only cost model pick m
    // (Section 5.4: "the cost model in [19] effectively determines the
    // best m value because of the HINT-first design").
    std::vector<IntervalRecord> records;
    records.reserve(corpus.size());
    for (const Object& o : corpus.objects()) {
      records.push_back(IntervalRecord{o.id, o.interval});
    }
    // irHINT's per-division probe is far heavier than plain HINT's (the
    // division tIF performs one key lookup per query element plus the
    // list intersections), so weigh probes accordingly; this steers the
    // model toward the smaller m values the Figure 9-style sweep confirms
    // for the performance variant.
    CostModelOptions model;
    model.partition_probe_cost = 256.0;
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
    ForAssignments(o.interval, [&](const PartitionRef& ref, SubdivRole role) {
      levels_.FindOrCreate(ref.level, ref.index)
          .subs[role]
          .Add(o.id, o.interval, o.elements);
    });
  }
  // Compact every division inverted file into its read-optimized CSR core.
  levels_.ForEachMutable([](int, uint64_t, Partition& part) {
    for (DivisionTif& sub : part.subs) sub.Finalize();
  });
  return Status::OK();
}

Status IrHintPerf::Insert(const Object& object) {
  IRHINT_RETURN_NOT_OK(ValidateObject(object));
  if (!built_) return Status::InvalidArgument("index not built");
  if (object.interval.end >=
      std::numeric_limits<StoredTime>::max()) {
    return Status::OutOfDomain("interval exceeds 32-bit stored endpoints");
  }
  if (object.interval.end > mapper_.domain_end()) {
    // Time-expanding extension: recent objects that outgrow the declared
    // domain live in a linearly scanned overflow store.
    overflow_.push_back(object);
    std::sort(overflow_.back().elements.begin(),
              overflow_.back().elements.end());
  } else {
    ForAssignments(object.interval,
                   [&](const PartitionRef& ref, SubdivRole role) {
                     levels_.FindOrCreate(ref.level, ref.index)
                         .subs[role]
                         .Add(object.id, object.interval, object.elements);
                   });
  }
  for (ElementId e : object.elements) {
    // GrowToFit widens before the increment; the unchecked `e + 1` wraps
    // to 0 at the max ElementId, making the resize a no-op and the
    // increment an out-of-bounds write (the PR 4 bug class).
    if (e >= frequencies_.size()) {
      frequencies_.resize(GrowToFit(e), 0);
    }
    ++frequencies_[e];
  }
  return Status::OK();
}

Status IrHintPerf::Erase(const Object& object) {
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
                   tombstoned +=
                       part->subs[role].Tombstone(object.id, object.elements);
                 });
  if (tombstoned == 0) return Status::NotFound("object not present");
  for (ElementId e : object.elements) {
    if (e < frequencies_.size() && frequencies_[e] > 0) --frequencies_[e];
  }
  return Status::OK();
}

void IrHintPerf::Query(const irhint::Query& query, std::vector<ObjectId>* out) const {
  out->clear();
  if (!built_ || query.elements.empty()) return;
  if (query.interval.st > query.interval.end) return;

  // Sort q.d once by global frequency; every division inverted file uses
  // the same least-frequent-first order.
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
          const auto [in_mode, aft_mode] = SplitOriginalsMode(originals_mode);
          part.subs[kOin].Query(elements, query.interval, in_mode, &scratch, out);
          part.subs[kOaft].Query(elements, query.interval, aft_mode, &scratch,
                                 out);
          if (scan_replicas) {
            const auto [rin_mode, raft_mode] =
                SplitReplicasMode(replicas_mode);
            part.subs[kRin].Query(elements, query.interval, rin_mode, &scratch,
                                  out);
            part.subs[kRaft].Query(elements, query.interval, raft_mode, &scratch,
                                   out);
          }
        });
    state.Descend(level);
  }
  }

  // Overflow objects: exhaustive check (both predicates on raw values).
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

size_t IrHintPerf::MemoryUsageBytes() const {
  size_t bytes = levels_.DirectoryBytes();
  bytes += overflow_.capacity() * sizeof(Object);
  for (const Object& o : overflow_) {
    bytes += o.elements.capacity() * sizeof(ElementId);
  }
  bytes += frequencies_.capacity() * sizeof(uint64_t);
  levels_.ForEach([&bytes](int, uint64_t, const Partition& part) {
    for (const DivisionTif& sub : part.subs) {
      bytes += sub.MemoryUsageBytes();
    }
  });
  return bytes;
}

Status IrHintPerf::IntegrityCheck(CheckLevel level) const {
  if (!built_) {
    if (levels_.num_levels() != 0 || !overflow_.empty()) {
      return Status::Corruption("irhint-perf unbuilt index holds data");
    }
    return Status::OK();
  }
  if (m_ < 0 || m_ > 30) {
    return Status::Corruption("irhint-perf m out of range");
  }
  if (levels_.num_levels() != m_ + 1) {
    return Status::Corruption("irhint-perf level directory shape mismatch");
  }
  const uint64_t element_limit =
      frequencies_.empty() ? DivisionPostings<Posting>::kNoElementLimit
                           : static_cast<uint64_t>(frequencies_.size());
  for (int lvl = 0; lvl <= m_; ++lvl) {
    const std::vector<uint64_t>& keys = levels_.keys(lvl);
    if (keys.size() != levels_.parts(lvl).size()) {
      return Status::Corruption("irhint-perf partition directory mismatch");
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i > 0 && keys[i] <= keys[i - 1]) {
        return Status::Corruption("irhint-perf partition keys not sorted");
      }
      if ((keys[i] >> lvl) != 0) {
        return Status::Corruption("irhint-perf partition key out of level "
                                  "range");
      }
    }
  }

  Status status = Status::OK();
  // Live original postings per element; reconciled against frequencies_
  // below (each live object has exactly one original assignment, so the
  // per-element census over O_in/O_aft plus overflow must equal the global
  // frequency table).
  std::vector<uint64_t> census(frequencies_.size(), 0);
  levels_.ForEach([&](int lvl, uint64_t key, const Partition& part) {
    if (!status.ok()) return;
    for (int role = 0; role < 4; ++role) {
      const DivisionTif& sub = part.subs[role];
      status = sub.CheckStructure(level, element_limit);
      if (!status.ok()) return;
      if (level == CheckLevel::kQuick) continue;
      status = sub.ForEachEntry([&](ElementId e, const Posting& p) {
        if (p.st > p.end) {
          return Status::Corruption("irhint-perf posting has inverted "
                                    "interval");
        }
        if (p.end > mapper_.domain_end()) {
          return Status::Corruption("irhint-perf posting exceeds declared "
                                    "domain");
        }
        if (p.id == kTombstoneId) return Status::OK();
        if ((role == kOin || role == kOaft) && e < census.size()) {
          ++census[e];
        }
        // Re-derive the canonical HINT assignment from the stored
        // endpoints: this (level, key, role) must be one of the partitions
        // AssignToPartitions emits for the interval.
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
          return Status::Corruption("irhint-perf posting stored in "
                                    "non-canonical division");
        }
        return Status::OK();
      });
      if (!status.ok()) return;
    }
  });
  IRHINT_RETURN_NOT_OK(status);
  if (level == CheckLevel::kQuick) return Status::OK();

  for (const Object& o : overflow_) {
    if (o.interval.st > o.interval.end) {
      return Status::Corruption("irhint-perf overflow object has inverted "
                                "interval");
    }
    if (o.interval.end <= mapper_.domain_end()) {
      // Defining property of the overflow store: the object outgrew the
      // declared domain.
      return Status::Corruption("irhint-perf overflow object fits the "
                                "indexed domain");
    }
    for (size_t k = 1; k < o.elements.size(); ++k) {
      if (o.elements[k] <= o.elements[k - 1]) {
        return Status::Corruption("irhint-perf overflow description not "
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
      return Status::Corruption("irhint-perf frequency table out of sync "
                                "with live postings");
    }
  }
  return Status::OK();
}

Status IrHintPerf::SaveTo(SnapshotWriter* writer) const {
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
      for (const DivisionTif& sub : part.subs) {
        sub.SaveTo(writer);
      }
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

Status IrHintPerf::LoadFrom(SnapshotReader* reader) {
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
      for (DivisionTif& sub : part.subs) {
        IRHINT_RETURN_NOT_OK(sub.LoadFrom(&payload.value()));
      }
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

#include "serve/engine.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>

#include "core/durable_index.h"

namespace irhint {
namespace serve {

namespace {

/// The distinct buckets of `elements`, ascending.
void ElementBuckets(std::span<const ElementId> elements, uint32_t buckets,
                    std::vector<uint32_t>* out) {
  out->clear();
  for (const ElementId element : elements) {
    out->push_back(TermBucket(element, buckets));
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

/// Replication targets of one object inside a time shard: the distinct
/// buckets of its elements (bucket 0 for element-less objects, which only
/// element-less queries — routed to every bucket — can match).
void ObjectBuckets(const Object& object, uint32_t buckets,
                   std::vector<uint32_t>* out) {
  if (buckets == 1 || object.elements.empty()) {
    out->assign(1, 0);
  } else {
    ElementBuckets(object.elements, buckets, out);
  }
}

}  // namespace

uint32_t TermBucket(ElementId element, uint32_t buckets) {
  // splitmix64 finalizer: cheap, well-mixed, stable across platforms.
  uint64_t z = static_cast<uint64_t>(element) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<uint32_t>(z % buckets);
}

StatusOr<std::unique_ptr<ServeEngine>> ServeEngine::Create(
    const Corpus& corpus, const ServeOptions& options) {
  if (options.time_shards < 1 || options.term_buckets < 1) {
    return Status::InvalidArgument("time_shards and term_buckets must be >= 1");
  }
  if (options.max_queue_depth < 1 || options.max_batch < 1) {
    return Status::InvalidArgument(
        "max_queue_depth and max_batch must be >= 1");
  }

  std::unique_ptr<ServeEngine> engine(new ServeEngine());
  const Time domain_end = corpus.domain_end();
  // Number of representable time points; 128-bit so domain_end ==
  // Time::max does not wrap.
  const unsigned __int128 span =
      static_cast<unsigned __int128>(domain_end) + 1;
  const uint32_t time_shards = static_cast<uint32_t>(
      std::min<unsigned __int128>(options.time_shards, span));
  engine->time_shards_ = time_shards;
  engine->term_buckets_ = options.term_buckets;
  engine->shard_starts_.reserve(time_shards);
  for (uint32_t t = 0; t < time_shards; ++t) {
    engine->shard_starts_.push_back(static_cast<Time>(span * t / time_shards));
  }

  // Per-time-shard coordinate frames: shard t serves [lo, hi] rebased to
  // 0 (hi saturated for the last shard so live inserts past the built
  // domain still route somewhere). Building over the rebased 1/N span
  // makes each shard's divisions proportionally finer — the throughput
  // lever narrow queries pay for.
  std::vector<Interval> ranges(time_shards);
  for (uint32_t t = 0; t < time_shards; ++t) {
    ranges[t] = Interval(engine->shard_starts_[t],
                         t + 1 < time_shards
                             ? engine->shard_starts_[t + 1] - 1
                             : std::numeric_limits<Time>::max());
  }

  // Partition: replicate every object into each covering (time, bucket)
  // cell, clamped+rebased to the shard frame and renumbered to dense local
  // ids with the global id remembered in the shard's id map. Scored kinds
  // keep GLOBAL coordinates instead: an impact score is a pure function of
  // the global interval end, so a rebased replica would score differently
  // than the same object on another shard and break the cross-shard merge.
  const bool scored = KindSupportsTopK(options.kind);
  const size_t num_shards =
      static_cast<size_t>(time_shards) * options.term_buckets;
  std::vector<Corpus> locals(num_shards);
  std::vector<std::vector<ObjectId>> id_maps(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const Interval& range = ranges[shard / options.term_buckets];
    locals[shard].set_dictionary(corpus.dictionary());
    locals[shard].DeclareDomain(
        scored ? domain_end : std::min(domain_end, range.end) - range.st);
  }
  std::vector<uint32_t> buckets;
  for (const Object& object : corpus.objects()) {
    const uint32_t t0 = engine->TimeShardOf(object.interval.st);
    const uint32_t t1 = engine->TimeShardOf(object.interval.end);
    ObjectBuckets(object, options.term_buckets, &buckets);
    for (uint32_t t = t0; t <= t1; ++t) {
      const Interval local =
          scored ? object.interval
                 : Interval(
                       std::max(object.interval.st, ranges[t].st) -
                           ranges[t].st,
                       std::min(object.interval.end, ranges[t].end) -
                           ranges[t].st);
      for (const uint32_t b : buckets) {
        const size_t shard = engine->ShardAt(t, b);
        locals[shard].Append(local, object.elements);
        id_maps[shard].push_back(object.id);
      }
    }
  }

  const bool durable = !options.wal_dir.empty();
  if (durable) {
    std::error_code ec;
    std::filesystem::create_directories(options.wal_dir, ec);
    if (ec) {
      return Status::IoError("cannot create wal_dir " + options.wal_dir +
                             ": " + ec.message());
    }
  }

  ShardOptions shard_options;
  shard_options.max_queue_depth = options.max_queue_depth;
  shard_options.max_batch = options.max_batch;
  shard_options.localize = !scored;
  shard_options.batch_hook = options.batch_hook;

  engine->shards_.reserve(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const uint32_t t = static_cast<uint32_t>(shard / options.term_buckets);
    const Interval& range = ranges[t];
    IRHINT_RETURN_NOT_OK(locals[shard].Finalize());

    std::unique_ptr<TemporalIrIndex> index;
    if (durable) {
      const std::string dir =
          options.wal_dir + "/shard-" +
          std::to_string(t) + "-" +
          std::to_string(shard % options.term_buckets);
      std::error_code ec;
      if (std::filesystem::exists(dir, ec) &&
          !std::filesystem::is_empty(dir, ec)) {
        return Status::InvalidArgument(
            "serve wal_dir must be fresh; found existing state in " + dir);
      }
      DurableIndexOptions durable_options;
      durable_options.kind = options.kind;
      durable_options.config = options.config;
      durable_options.durability = options.durability;
      durable_options.checkpoint_bytes = options.checkpoint_bytes;
      StatusOr<std::unique_ptr<DurableIndex>> opened =
          DurableIndex::Open(dir, durable_options);
      IRHINT_RETURN_NOT_OK(opened.status());
      IRHINT_RETURN_NOT_OK((*opened)->Build(locals[shard]));
      index = std::move(opened).value();
    } else {
      index = CreateIndex(options.kind, options.config);
      IRHINT_RETURN_NOT_OK(index->Build(locals[shard]));
    }
    engine->shards_.push_back(std::make_unique<Shard>(
        shard, range, std::move(index), std::move(id_maps[shard]),
        shard_options));
    // Free the replicated sub-corpus before building the next shard.
    locals[shard] = Corpus();
  }
  engine->next_object_id_.store(static_cast<ObjectId>(corpus.size()),
                                std::memory_order_relaxed);
  for (std::unique_ptr<Shard>& shard : engine->shards_) shard->Start();
  return engine;
}

ServeEngine::~ServeEngine() {
  for (std::unique_ptr<Shard>& shard : shards_) shard->Stop();
}

uint32_t ServeEngine::TimeShardOf(Time t) const {
  // shard_starts_ is strictly ascending and starts at 0, so the covering
  // shard is the last start <= t.
  const auto it =
      std::upper_bound(shard_starts_.begin(), shard_starts_.end(), t);
  return static_cast<uint32_t>(it - shard_starts_.begin()) - 1;
}

void ServeEngine::RouteQuery(const Query& query,
                             std::span<const ElementId> bucket_elements,
                             std::vector<Shard*>* targets) const {
  std::vector<uint32_t> buckets;
  if (bucket_elements.empty()) {
    // Element-less queries cannot pick a bucket: fan out to all (empty
    // results either way, but the legs must run so a top-k NotSupported
    // surfaces; the merge drops replicas).
    buckets.resize(term_buckets_);
    std::iota(buckets.begin(), buckets.end(), 0u);
  } else {
    ElementBuckets(bucket_elements, term_buckets_, &buckets);
  }
  RouteTo(query.interval, buckets, targets);
}

void ServeEngine::RouteObject(const Object& object,
                              std::vector<Shard*>* targets) const {
  std::vector<uint32_t> buckets;
  ObjectBuckets(object, term_buckets_, &buckets);
  RouteTo(object.interval, buckets, targets);
}

void ServeEngine::RouteTo(const Interval& interval,
                          const std::vector<uint32_t>& buckets,
                          std::vector<Shard*>* targets) const {
  targets->clear();
  const uint32_t t0 = TimeShardOf(interval.st);
  const uint32_t t1 = TimeShardOf(interval.end);
  for (uint32_t t = t0; t <= t1; ++t) {
    for (const uint32_t b : buckets) {
      targets->push_back(shards_[ShardAt(t, b)].get());
    }
  }
}

template <typename Hit>
BasicResultFuture<Hit> ServeEngine::FanOut(
    const Query& query, std::span<const ElementId> bucket_elements,
    uint32_t k) {
  std::vector<Shard*> targets;
  RouteQuery(query, bucket_elements, &targets);
  auto state = std::make_shared<BasicResultState<Hit>>(
      static_cast<uint32_t>(targets.size()),
      std::is_same_v<Hit, ScoredHit> ? k : std::numeric_limits<size_t>::max());
  for (Shard* shard : targets) {
    if (!shard->TrySubmit(query, k, state)) {
      state->FailLeg(Status::Unavailable(
          "shard " + std::to_string(shard->shard_index()) +
          " queue full; query shed"));
    }
  }
  return BasicResultFuture<Hit>(std::move(state));
}

ResultFuture ServeEngine::Submit(const Query& query) {
  // Matching objects contain every query element, so they are replicated
  // into the first element's bucket.
  const std::span<const ElementId> elements(query.elements);
  return FanOut<ObjectId>(
      query, elements.first(std::min<size_t>(elements.size(), 1)), /*k=*/0);
}

StatusOr<std::vector<ObjectId>> ServeEngine::Execute(const Query& query) {
  return Submit(query).Get();
}

TopKFuture ServeEngine::SubmitTopK(const Query& query, uint32_t k) {
  // Disjunctive scoring: an object matching ANY query element can rank,
  // and it is only guaranteed replicated into that element's bucket.
  return FanOut<ScoredHit>(query, query.elements, k);
}

StatusOr<std::vector<ScoredHit>> ServeEngine::ExecuteTopK(const Query& query,
                                                          uint32_t k) {
  return SubmitTopK(query, k).Get();
}

Status ServeEngine::RunUpdate(bool erase, const Object& object) {
  std::vector<Shard*> targets;
  RouteObject(object, &targets);
  auto state = std::make_shared<ResultState>(
      static_cast<uint32_t>(targets.size()));
  for (Shard* shard : targets) {
    shard->SubmitUpdate(erase, object, state);
  }
  return state->Wait().status();
}

Status ServeEngine::Insert(const Object& object) {
  IRHINT_RETURN_NOT_OK(ValidateObject(object));
  if (object.id < next_object_id_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument(
        "insert ids must strictly increase (single-writer model)");
  }
  IRHINT_RETURN_NOT_OK(RunUpdate(/*erase=*/false, object));
  next_object_id_.store(object.id + 1, std::memory_order_relaxed);
  return Status::OK();
}

StatusOr<ObjectId> ServeEngine::AppendInsert(
    Interval interval, std::vector<ElementId> elements) {
  // Descriptions carry set semantics, like Corpus::Finalize produces.
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  Object object(next_object_id_.load(std::memory_order_relaxed), interval,
                std::move(elements));
  IRHINT_RETURN_NOT_OK(Insert(object));
  return object.id;
}

Status ServeEngine::Erase(const Object& object) {
  IRHINT_RETURN_NOT_OK(ValidateObject(object));
  return RunUpdate(/*erase=*/true, object);
}

void ServeEngine::WaitIdle() {
  for (const std::unique_ptr<Shard>& shard : shards_) shard->WaitIdle();
}

Status ServeEngine::Flush() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (auto* durable = dynamic_cast<DurableIndex*>(shard->index())) {
      IRHINT_RETURN_NOT_OK(durable->Flush());
    }
  }
  return Status::OK();
}

EngineStats ServeEngine::Stats() const {
  EngineStats stats;
  stats.shards.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ShardStats s = shard->Stats();
    stats.total_submitted += s.submitted;
    stats.total_shed += s.shed;
    stats.total_completed += s.completed;
    stats.total_executed_queries += s.executed_queries;
    stats.total_dedup_hits += s.dedup_hits;
    stats.total_updates_applied += s.updates_applied;
    stats.total_batches += s.batches;
    stats.max_queue_depth = std::max(stats.max_queue_depth, s.queue_depth);
    stats.max_peak_queue_depth =
        std::max(stats.max_peak_queue_depth, s.peak_queue_depth);
    stats.shards.push_back(std::move(s));
  }
  return stats;
}

size_t ServeEngine::MemoryUsageBytes() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->index()->MemoryUsageBytes();
  }
  return total;
}

}  // namespace serve
}  // namespace irhint

// The sharded serving engine (DESIGN.md §11): partitions a corpus into
// time_shards contiguous time ranges (optionally sub-partitioned into
// term_buckets hashed-term buckets, boolIR-style), builds one index per
// shard — plain in-memory, or a DurableIndex over a per-shard WAL
// directory — and serves concurrent traffic through a thread-safe
// Submit(Query) -> ResultFuture API.
//
// Routing: an object is replicated into every time shard its lifespan
// overlaps; with term_buckets > 1 it lands in bucket h(e) for each of its
// elements e (so any single query element locates every matching object).
// A query fans out only to the time shards overlapping its interval, and
// within each to the buckets of the elements that choose them: the first
// element for a Boolean query, all of them for a disjunctive top-k query
// (all buckets for element-less queries). Boolean and top-k requests take
// one path — one router, one fan-out, one shard submit and batch loop, one
// result state — generic over the hit type (ObjectId or ScoredHit).
// Shards report sorted, duplicate-free legs and the future merges them
// with a linear sorted union, so results are byte-identical to a 1-shard
// engine for any shard/bucket/thread count.
//
// Updates: Insert/Erase route to the same shard set as placement and ride
// the per-shard queues (the worker is the only thread touching its index,
// so plain indexes need no locking). The engine is single-writer, like
// the paper's Section 5.5 update model: one thread issues updates with
// strictly increasing ids; queries are fully concurrent.

#ifndef IRHINT_SERVE_ENGINE_H_
#define IRHINT_SERVE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/factory.h"
#include "data/corpus.h"
#include "serve/shard.h"
#include "wal/wal_writer.h"

namespace irhint {
namespace serve {

/// \brief Engine configuration. Defaults serve an in-memory engine of 4
/// time shards with no term sub-partitioning.
struct ServeOptions {
  /// Contiguous time-range partitions (>= 1). Clamped down when the
  /// domain has fewer time points than shards.
  uint32_t time_shards = 4;
  /// Hashed-term sub-partitions per time shard (>= 1; 1 disables).
  uint32_t term_buckets = 1;

  /// Index kind (and tuning) instantiated per shard.
  IndexKind kind = IndexKind::kIrHintPerf;
  IndexConfig config;

  /// Admission control: per-shard bounded queue depth; queries past it
  /// are shed with kUnavailable, updates block (backpressure).
  size_t max_queue_depth = 1024;
  /// Batch coalescing cap: requests popped per worker wakeup.
  size_t max_batch = 64;

  /// Non-empty: durable mode. Each shard owns a DurableIndex under
  /// wal_dir/shard-<t>-<b>; the directories must be fresh (the engine
  /// does not yet recover a sharded layout across runs).
  std::string wal_dir;
  WalDurability durability = WalDurability::kBatch;
  uint64_t checkpoint_bytes = 0;

  /// Test hook forwarded to every shard (see ShardOptions::batch_hook).
  std::function<void(size_t shard_index)> batch_hook;
};

/// \brief Aggregate of the per-shard counters (sums; max for the gauges).
struct EngineStats {
  std::vector<ShardStats> shards;
  uint64_t total_submitted = 0;
  uint64_t total_shed = 0;
  uint64_t total_completed = 0;
  uint64_t total_executed_queries = 0;
  uint64_t total_dedup_hits = 0;
  uint64_t total_updates_applied = 0;
  uint64_t total_batches = 0;
  uint64_t max_queue_depth = 0;
  uint64_t max_peak_queue_depth = 0;
};

/// \brief Deterministic hashed-term bucket (splitmix64 finalizer).
uint32_t TermBucket(ElementId element, uint32_t buckets);

/// \brief N-shard serving engine over one corpus.
class ServeEngine {
 public:
  /// \brief Partition `corpus`, bulk-build every shard index, start the
  /// workers. The corpus must be finalized; objects keep their global ids
  /// in every result.
  static StatusOr<std::unique_ptr<ServeEngine>> Create(
      const Corpus& corpus, const ServeOptions& options);

  /// Stops every shard worker (outstanding requests complete first).
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // -- Query path (thread-safe, any number of concurrent callers) ----------

  /// \brief Route the query to the shards overlapping its interval and
  /// return a future over the merged result. Never blocks on shard work;
  /// a full target queue fails that leg with kUnavailable (the future's
  /// Get() then reports the shed).
  ResultFuture Submit(const Query& query);

  /// \brief Submit + Get in one call.
  StatusOr<std::vector<ObjectId>> Execute(const Query& query);

  /// \brief Route a ranked top-k query (kind must support TopKQuery, see
  /// KindSupportsTopK) to the shards overlapping its interval — across
  /// the buckets of ALL its elements, the query being disjunctive — and
  /// return a future over the deterministically merged global top-k.
  TopKFuture SubmitTopK(const Query& query, uint32_t k);

  /// \brief SubmitTopK + Get in one call.
  StatusOr<std::vector<ScoredHit>> ExecuteTopK(const Query& query, uint32_t k);

  // -- Update path (single writer, Section 5.5 model) -----------------------

  /// \brief Route an insert to every covering shard and wait for it to
  /// apply. `object.id` must exceed every id inserted so far.
  Status Insert(const Object& object);

  /// \brief Convenience for live ingestion: assigns the next global id.
  StatusOr<ObjectId> AppendInsert(Interval interval,
                                  std::vector<ElementId> elements);

  /// \brief Route a tombstoning erase (same interval/description as the
  /// insert) to every covering shard and wait.
  Status Erase(const Object& object);

  // -- Control & observability ----------------------------------------------

  /// \brief Block until every shard queue is drained and idle.
  void WaitIdle();

  /// \brief Durable mode: fsync every shard's WAL. No-op otherwise.
  Status Flush();

  EngineStats Stats() const;

  /// \brief Heap footprint across shard indexes. Quiesce (WaitIdle) first:
  /// plain-index shards are worker-owned.
  size_t MemoryUsageBytes() const;

  uint32_t time_shards() const { return time_shards_; }
  uint32_t term_buckets() const { return term_buckets_; }
  size_t num_shards() const { return shards_.size(); }
  const Interval& shard_time_range(size_t shard) const {
    return shards_[shard]->time_range();
  }
  /// \brief The id AppendInsert() will assign next.
  ObjectId next_object_id() const { return next_object_id_; }

 private:
  ServeEngine() = default;

  /// Shards overlapping [query interval] x [buckets of `bucket_elements`]
  /// (every bucket when it is empty).
  void RouteQuery(const Query& query,
                  std::span<const ElementId> bucket_elements,
                  std::vector<Shard*>* targets) const;
  /// Shards that must hold `object` under the placement rule.
  void RouteObject(const Object& object, std::vector<Shard*>* targets) const;
  /// Shards overlapping [interval] x [buckets].
  void RouteTo(const Interval& interval, const std::vector<uint32_t>& buckets,
               std::vector<Shard*>* targets) const;
  /// Routes a query and submits one leg per target shard; a full queue
  /// fails its leg with kUnavailable. Top-k results are truncated to `k`.
  template <typename Hit>
  BasicResultFuture<Hit> FanOut(const Query& query,
                                std::span<const ElementId> bucket_elements,
                                uint32_t k);
  Status RunUpdate(bool erase, const Object& object);

  size_t ShardAt(uint32_t time_shard, uint32_t bucket) const {
    return static_cast<size_t>(time_shard) * term_buckets_ + bucket;
  }
  /// First time shard whose range may overlap a point at or after `t`.
  uint32_t TimeShardOf(Time t) const;

  uint32_t time_shards_ = 1;         // unguarded: immutable after Create
  uint32_t term_buckets_ = 1;        // unguarded: immutable after Create
  std::vector<Time> shard_starts_;   // unguarded: immutable after Create
  std::vector<std::unique_ptr<Shard>> shards_;  // unguarded: immutable ptrs
  // Single-writer id allocator for AppendInsert (monitoring reads relaxed).
  std::atomic<ObjectId> next_object_id_{0};
};

}  // namespace serve
}  // namespace irhint

#endif  // IRHINT_SERVE_ENGINE_H_

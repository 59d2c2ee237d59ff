// One serving shard: a time-range (and optionally hashed-term) partition
// of the corpus, owning its own TemporalIrIndex (plain in-memory or a
// DurableIndex over a per-shard WAL directory) plus a bounded request
// queue drained by a dedicated worker thread.
//
// Batching: the worker pops every queued request up to max_batch in one
// lock acquisition — the natural coalescing window is however long the
// previous batch took — applies the batch's updates in submission order,
// then sorts its queries so twins (same kind, k, interval and elements;
// common under Zipf traffic) run the index descent once and fan the hits
// out to every twin. Boolean and top-k queries share this loop; only the
// descent differs by hit type.
//
// Result legs: every leg leaves the shard as a duplicate-free vector of
// global ids sorted under LegBefore (serve/result_future.h), so the merge
// is a linear union (a single leg passes straight through). Local ids are
// dense in [0, id_map_.size()) and id_map_ is ascending, so ordering local
// ids orders the global ids too. Boolean legs are ordered with a
// worker-owned bitmap over local ids: set bits, then scan and clear only
// the words between the lowest and the highest id. Top-k legs arrive from
// TopKQuery in ScoredBetter order, which the ascending id map keeps. Each
// leg is moved into its result state; only batched twins get copies.
//
// Admission control: TrySubmit() rejects when the queue is at
// max_queue_depth (the router fails that leg with kUnavailable and the
// shard counts a shed); SubmitUpdate() instead blocks — shedding a query
// costs a retry, shedding an update would lose data — so ingestion sees
// backpressure, not loss.
//
// Concurrency (DESIGN.md §11): "serve::Shard::queue" guards the queue and
// the worker handshake; it is released before the batch executes, so index
// locks (e.g. "DurableIndex::state") and the result-state leaf mutex are
// only ever acquired with no shard lock held. The index and the local→
// global id map are touched exclusively by the worker thread once Start()
// has run (bulk build happens before, on the constructing thread).

#ifndef IRHINT_SERVE_SHARD_H_
#define IRHINT_SERVE_SHARD_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "common/thread_annotations.h"
#include "core/temporal_ir_index.h"
#include "data/object.h"
#include "serve/result_future.h"

namespace irhint {
namespace serve {

/// \brief Monotonic counters plus instantaneous gauges for one shard.
/// Snapshot reads are relaxed and best-effort (monitoring semantics, like
/// QueryCounters).
struct ShardStats {
  uint64_t submitted = 0;        ///< requests accepted into the queue
  uint64_t shed = 0;             ///< queries rejected at max_queue_depth
  uint64_t completed = 0;        ///< requests resolved (incl. dedup twins)
  uint64_t executed_queries = 0; ///< distinct index descents performed
  uint64_t dedup_hits = 0;       ///< batched duplicates served by a twin
  uint64_t updates_applied = 0;  ///< inserts + erases applied
  uint64_t batches = 0;          ///< worker wakeups that processed >= 1 req
  uint64_t max_batch = 0;        ///< largest batch popped so far
  uint64_t queue_depth = 0;      ///< instantaneous queued requests
  uint64_t peak_queue_depth = 0; ///< high-water mark of queue_depth
  double busy_seconds = 0.0;     ///< wall time spent executing batches
};

/// \brief Knobs one shard needs (the engine fans ServeOptions out).
struct ShardOptions {
  size_t max_queue_depth = 1024;
  size_t max_batch = 64;
  /// Clamp+rebase intervals into the shard's local frame at enqueue.
  /// Scored engines disable this: impact scores are a function of the
  /// GLOBAL interval end, so every shard must keep global coordinates or
  /// replicas of one object would score differently across shards.
  bool localize = true;
  /// Test hook: runs on the worker thread before each batch executes (no
  /// lock held). The admission-control tests inject a sleep here to make
  /// a shard slow; never set in production configs.
  std::function<void(size_t shard_index)> batch_hook;
};

/// \brief Completion state of one shard leg: Boolean queries and updates
/// resolve an id state, top-k queries a scored one.
using LegResult = std::variant<std::shared_ptr<ResultState>,
                               std::shared_ptr<BasicResultState<ScoredHit>>>;

/// \brief A single serving partition. Construction takes the already
/// bulk-built index plus the local→global id map; Start() arms the worker.
class Shard {
 public:
  /// \param time_range   the [lo, hi] slice of the time domain this shard
  ///                     covers (hi is saturated for the last shard).
  /// \param id_map       global id of each local id, ascending (bulk-built
  ///                     objects; live inserts append).
  Shard(size_t shard_index, Interval time_range,
        std::unique_ptr<TemporalIrIndex> index,
        std::vector<ObjectId> id_map, ShardOptions options);

  /// Stops and joins the worker; any still-queued requests are resolved
  /// (queries execute, updates apply) before the thread exits.
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// \brief Arm the worker thread. Call exactly once, after construction.
  void Start();

  /// \brief Drain the queue and join the worker. Idempotent; the
  /// destructor calls it too.
  void Stop();

  /// \brief Enqueue one query leg: Boolean when `result` holds an id
  /// state (pass k = 0), ranked top-k when it holds a scored one. Returns
  /// false (and counts a shed) when the queue is at max_queue_depth; the
  /// caller must then fail the leg with kUnavailable. Indexes without
  /// scored postings fail top-k legs with NotSupported.
  bool TrySubmit(const Query& query, uint32_t k, LegResult result);

  /// \brief Enqueue an insert (erase=false) or erase (erase=true) leg.
  /// Blocks while the queue is full — updates are never shed, they see
  /// backpressure instead. `object` carries the global id; the worker
  /// translates through the id map.
  void SubmitUpdate(bool erase, Object object,
                    std::shared_ptr<ResultState> result);

  /// \brief Block until the queue is empty and no batch is executing.
  void WaitIdle();

  ShardStats Stats() const;
  size_t shard_index() const { return shard_index_; }
  const Interval& time_range() const { return time_range_; }

  /// \brief The wrapped index. Only for thread-safe operations (e.g.
  /// DurableIndex::Flush) or quiesced inspection after WaitIdle().
  TemporalIrIndex* index() { return index_.get(); }
  const TemporalIrIndex* index() const { return index_.get(); }

 private:
  struct Request {
    enum class Kind { kQuery, kInsert, kErase };
    Kind kind = Kind::kQuery;
    Query query;     // kQuery payload
    uint32_t k = 0;  // kQuery top-k limit; 0 for Boolean legs
    Object object;   // update payload (global id)
    LegResult result;

    /// Twins have equal keys: one index descent answers them all.
    std::tuple<size_t, uint32_t, Time, Time, const std::vector<ElementId>&>
    TwinKey() const {
      return {result.index(), k, query.interval.st, query.interval.end,
              query.elements};
    }
  };

  void WorkerLoop();
  /// Runs one popped batch with no shard lock held.
  void ExecuteBatch(std::vector<Request>* batch) IRHINT_EXCLUDES(mu_);
  void ApplyUpdate(Request* request);
  /// Answers a group of twins with one index descent.
  template <typename Hit>
  void ExecuteTwins(std::span<Request* const> twins);
  /// One index descent; the leg's global hits, sorted under LegBefore.
  Status Answer(const Request& request, std::vector<ObjectId>* ids);
  Status Answer(const Request& request, std::vector<ScoredHit>* hits);
  /// Writes the distinct global ids of the local ids in `local`, ascending,
  /// to `global`.
  void ToSortedGlobalIds(const std::vector<ObjectId>& local,
                         std::vector<ObjectId>* global);

  /// Clamp to the shard's time range and rebase to its local origin. The
  /// shard index covers only [lo, hi] rebased to 0, so its divisions are
  /// proportionally finer; correctness is unchanged because a query and an
  /// object replica that both overlap [lo, hi] intersect somewhere iff
  /// their clamped images do, and the router covers every shard the true
  /// intersection can fall in. Callers must only pass intervals
  /// overlapping time_range_ (the router guarantees it).
  Interval Localize(const Interval& interval) const {
    if (!options_.localize) return interval;
    return Interval(std::max(interval.st, time_range_.st) - time_range_.st,
                    std::min(interval.end, time_range_.end) - time_range_.st);
  }

  const size_t shard_index_;       // unguarded: immutable after construction
  const Interval time_range_;      // unguarded: immutable after construction
  const ShardOptions options_;     // unguarded: immutable after construction

  // Worker-thread-only once Start() ran (bulk build precedes Start on the
  // constructing thread); quiesced readers must WaitIdle() first.
  std::unique_ptr<TemporalIrIndex> index_;  // unguarded: worker-owned
  std::vector<ObjectId> id_map_;            // unguarded: worker-owned
  // Boolean descent scratch: the local ids, and one bit per local id for
  // ToSortedGlobalIds (all zero between calls). Outside MemoryUsageBytes:
  // it is not index state.
  std::vector<ObjectId> local_ids_;         // unguarded: worker-owned
  std::vector<uint64_t> bitmap_;            // unguarded: worker-owned

  mutable Mutex mu_{"serve::Shard::queue"};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<Request> queue_ IRHINT_GUARDED_BY(mu_);
  bool stopping_ IRHINT_GUARDED_BY(mu_) = false;
  bool executing_ IRHINT_GUARDED_BY(mu_) = false;

  // Monitoring counters: relaxed atomics, racy-by-design best-effort reads
  // (same contract as core/query_counters.h).
  mutable std::atomic<uint64_t> submitted_{0};
  mutable std::atomic<uint64_t> shed_{0};
  mutable std::atomic<uint64_t> completed_{0};
  mutable std::atomic<uint64_t> executed_queries_{0};
  mutable std::atomic<uint64_t> dedup_hits_{0};
  mutable std::atomic<uint64_t> updates_applied_{0};
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> max_batch_{0};
  mutable std::atomic<uint64_t> peak_queue_depth_{0};
  mutable std::atomic<uint64_t> busy_nanos_{0};

  std::thread worker_;  // unguarded: Start() arms it, Stop() joins it
};

}  // namespace serve
}  // namespace irhint

#endif  // IRHINT_SERVE_SHARD_H_

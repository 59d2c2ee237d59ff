#include "serve/shard.h"

#include <algorithm>
#include <bit>
#include <tuple>
#include <utility>

#include "common/timer.h"

namespace irhint {
namespace serve {

namespace {

/// Strict weak order grouping identical queries next to each other so the
/// batch executor can reuse one descent for all duplicates.
bool QueryLess(const Query& a, const Query& b) {
  return std::tie(a.interval.st, a.interval.end, a.elements) <
         std::tie(b.interval.st, b.interval.end, b.elements);
}

bool QueryEqual(const Query& a, const Query& b) {
  return a.interval == b.interval && a.elements == b.elements;
}

void BumpMax(std::atomic<uint64_t>& cell, uint64_t value) {
  uint64_t seen = cell.load(std::memory_order_relaxed);
  while (seen < value &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Shard::Shard(size_t shard_index, Interval time_range,
             std::unique_ptr<TemporalIrIndex> index,
             std::vector<ObjectId> id_map, ShardOptions options)
    : shard_index_(shard_index),
      time_range_(time_range),
      options_(std::move(options)),
      index_(std::move(index)),
      id_map_(std::move(id_map)) {}

Shard::~Shard() { Stop(); }

void Shard::Start() {
  worker_ = std::thread([this]() { WorkerLoop(); });
}

void Shard::Stop() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    work_cv_.NotifyAll();
    // Unblock SubmitUpdate() callers waiting for queue space.
    idle_cv_.NotifyAll();
  }
  if (worker_.joinable()) worker_.join();
}

bool Shard::TrySubmitQuery(const Query& query,
                           std::shared_ptr<ResultState> result) {
  {
    MutexLock lock(&mu_);
    if (!stopping_ && queue_.size() < options_.max_queue_depth) {
      Request request;
      request.kind = Request::Kind::kQuery;
      // Localized at enqueue so the batch executor's duplicate grouping
      // compares shard-local coordinates.
      request.query.interval = Localize(query.interval);
      request.query.elements = query.elements;
      request.result = std::move(result);
      queue_.push_back(std::move(request));
      submitted_.fetch_add(1, std::memory_order_relaxed);
      BumpMax(peak_queue_depth_, queue_.size());
      work_cv_.NotifyOne();
      return true;
    }
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool Shard::TrySubmitTopK(const Query& query, uint32_t k,
                          std::shared_ptr<TopKState> result) {
  {
    MutexLock lock(&mu_);
    if (!stopping_ && queue_.size() < options_.max_queue_depth) {
      Request request;
      request.kind = Request::Kind::kTopK;
      // Scored engines run with localize=false, so this is the identity;
      // kept for symmetry with TrySubmitQuery.
      request.query.interval = Localize(query.interval);
      request.query.elements = query.elements;
      request.k = k;
      request.topk = std::move(result);
      queue_.push_back(std::move(request));
      submitted_.fetch_add(1, std::memory_order_relaxed);
      BumpMax(peak_queue_depth_, queue_.size());
      work_cv_.NotifyOne();
      return true;
    }
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Shard::SubmitUpdate(bool erase, Object object,
                         std::shared_ptr<ResultState> result) {
  Request request;
  request.kind = erase ? Request::Kind::kErase : Request::Kind::kInsert;
  object.interval = Localize(object.interval);
  request.object = std::move(object);
  request.result = std::move(result);
  std::shared_ptr<ResultState> reject;
  {
    MutexLock lock(&mu_);
    // Backpressure, not shedding: block the ingesting thread until the
    // worker drains below the limit (or the shard shuts down).
    while (!stopping_ && queue_.size() >= options_.max_queue_depth) {
      idle_cv_.Wait(&mu_);
    }
    if (stopping_) {
      reject = std::move(request.result);
    } else {
      queue_.push_back(std::move(request));
      submitted_.fetch_add(1, std::memory_order_relaxed);
      BumpMax(peak_queue_depth_, queue_.size());
      work_cv_.NotifyOne();
    }
  }
  if (reject != nullptr) {
    reject->FailLeg(Status::NotSupported("shard is shutting down"));
  }
}

void Shard::WaitIdle() {
  MutexLock lock(&mu_);
  while (!queue_.empty() || executing_) idle_cv_.Wait(&mu_);
}

ShardStats Shard::Stats() const {
  ShardStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.executed_queries = executed_queries_.load(std::memory_order_relaxed);
  stats.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
  stats.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.max_batch = max_batch_.load(std::memory_order_relaxed);
  stats.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
  stats.busy_seconds =
      static_cast<double>(busy_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  {
    MutexLock lock(&mu_);
    stats.queue_depth = queue_.size();
  }
  return stats;
}

void Shard::WorkerLoop() {
  std::vector<Request> batch;
  while (true) {
    batch.clear();
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !stopping_) work_cv_.Wait(&mu_);
      if (queue_.empty() && stopping_) return;
      const size_t take = std::min(queue_.size(), options_.max_batch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      executing_ = true;
      // Blocked SubmitUpdate() callers can refill the freed queue slots.
      idle_cv_.NotifyAll();
    }
    ExecuteBatch(&batch);
    {
      MutexLock lock(&mu_);
      executing_ = false;
      if (queue_.empty()) idle_cv_.NotifyAll();
    }
  }
}

void Shard::ExecuteBatch(std::vector<Request>* batch) {
  if (options_.batch_hook) options_.batch_hook(shard_index_);
  Timer timer;
  batches_.fetch_add(1, std::memory_order_relaxed);
  BumpMax(max_batch_, batch->size());

  // Updates first, in submission order (ids are strictly increasing, so
  // order matters); queries in the batch then observe every update that
  // was admitted before the batch formed.
  std::vector<size_t> query_indices;
  std::vector<size_t> topk_indices;
  query_indices.reserve(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    Request& request = (*batch)[i];
    if (request.kind == Request::Kind::kQuery) {
      query_indices.push_back(i);
    } else if (request.kind == Request::Kind::kTopK) {
      topk_indices.push_back(i);
    } else {
      ApplyUpdate(&request);
    }
  }

  // Group identical queries: one index descent per distinct query, the
  // ids fan out to every duplicate. Zipf-popular queries make this the
  // main amortization lever of the batch.
  std::stable_sort(query_indices.begin(), query_indices.end(),
                   [batch](size_t a, size_t b) {
                     return QueryLess((*batch)[a].query, (*batch)[b].query);
                   });
  std::vector<ObjectId> local_ids;
  std::vector<ObjectId> global_ids;
  const size_t queries = query_indices.size();
  for (size_t i = 0; i < queries; ++i) {
    Request& request = (*batch)[query_indices[i]];
    if (i > 0 &&
        QueryEqual(request.query, (*batch)[query_indices[i - 1]].query)) {
      dedup_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      index_->Query(request.query, &local_ids);
      executed_queries_.fetch_add(1, std::memory_order_relaxed);
      ToSortedGlobalIds(local_ids, &global_ids);
    }
    // The last twin of a group (or a lone query) takes the vector; the
    // next distinct query refills a fresh one.
    const bool last_twin =
        i + 1 == queries ||
        !QueryEqual(request.query, (*batch)[query_indices[i + 1]].query);
    request.result->CompleteLeg(last_twin ? std::exchange(global_ids, {})
                                          : global_ids);
    completed_.fetch_add(1, std::memory_order_relaxed);
  }

  // Top-k legs run after the batch's updates for the same visibility
  // guarantee as Boolean queries. No duplicate grouping: ranked traffic
  // is rarer and each leg's k can differ.
  for (const size_t i : topk_indices) ExecuteTopK(&(*batch)[i]);

  busy_nanos_.fetch_add(timer.Nanos(), std::memory_order_relaxed);
}

void Shard::ToSortedGlobalIds(const std::vector<ObjectId>& local,
                              std::vector<ObjectId>* global) {
  global->clear();
  if (local.empty()) return;
  global->reserve(local.size());
  // Live inserts grow id_map_; the new words start zeroed.
  bitmap_.resize((id_map_.size() + 63) / 64);
  size_t lo = bitmap_.size();
  size_t hi = 0;
  for (const ObjectId id : local) {
    const size_t word = id / 64;
    bitmap_[word] |= uint64_t{1} << (id % 64);
    lo = std::min(lo, word);
    hi = std::max(hi, word);
  }
  for (size_t word = lo; word <= hi; ++word) {
    uint64_t bits = bitmap_[word];
    bitmap_[word] = 0;
    while (bits != 0) {
      global->push_back(id_map_[word * 64 + std::countr_zero(bits)]);
      bits &= bits - 1;
    }
  }
}

void Shard::ExecuteTopK(Request* request) {
  std::vector<ScoredHit> hits;
  const Status status = index_->TopKQuery(request->query, request->k, &hits);
  executed_queries_.fetch_add(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (!status.ok()) {
    request->topk->FailLeg(status);
    return;
  }
  // Report global ids; scores are already global because scored shards
  // never rebase intervals (options_.localize == false).
  for (ScoredHit& hit : hits) hit.id = id_map_[hit.id];
  request->topk->CompleteLeg(std::move(hits));
}

void Shard::ApplyUpdate(Request* request) {
  const Object& object = request->object;
  Status status;
  if (request->kind == Request::Kind::kInsert) {
    Object local = object;
    local.id = static_cast<ObjectId>(id_map_.size());
    status = index_->Insert(local);
    if (status.ok()) id_map_.push_back(object.id);
  } else {
    // The id map is ascending (inserts arrive in global id order), so the
    // global→local translation is a binary search.
    const auto it =
        std::lower_bound(id_map_.begin(), id_map_.end(), object.id);
    if (it == id_map_.end() || *it != object.id) {
      status = Status::NotFound("object not mapped on this shard");
    } else {
      Object local = object;
      local.id = static_cast<ObjectId>(it - id_map_.begin());
      status = index_->Erase(local);
    }
  }
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (status.ok()) {
    request->result->CompleteLeg({});
  } else {
    request->result->FailLeg(status);
  }
}

}  // namespace serve
}  // namespace irhint

#include "serve/shard.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/timer.h"

namespace irhint {
namespace serve {

namespace {

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

bool Shard::TrySubmit(const Query& query, uint32_t k, LegResult result) {
  {
    MutexLock lock(&mu_);
    if (!stopping_ && queue_.size() < options_.max_queue_depth) {
      Request request;
      // Localized at enqueue so the batch executor's twin grouping
      // compares shard-local coordinates.
      request.query.interval = Localize(query.interval);
      request.query.elements = query.elements;
      request.k = k;
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
      reject = std::get<0>(std::move(request.result));
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
  std::vector<Request*> queries;
  queries.reserve(batch->size());
  for (Request& request : *batch) {
    if (request.kind == Request::Kind::kQuery) {
      queries.push_back(&request);
    } else {
      ApplyUpdate(&request);
    }
  }

  // Group twins: one index descent per distinct request, the hits fan out
  // to every twin. Zipf-popular queries make this the main amortization
  // lever of the batch.
  std::stable_sort(queries.begin(), queries.end(),
                   [](const Request* a, const Request* b) {
                     return a->TwinKey() < b->TwinKey();
                   });
  for (size_t begin = 0, end = 0; begin < queries.size(); begin = end) {
    while (end < queries.size() &&
           queries[end]->TwinKey() == queries[begin]->TwinKey()) {
      ++end;
    }
    const std::span<Request* const> twins(&queries[begin], end - begin);
    std::visit(
        [&]<typename Hit>(const std::shared_ptr<BasicResultState<Hit>>&) {
          ExecuteTwins<Hit>(twins);
        },
        twins[0]->result);
  }

  busy_nanos_.fetch_add(timer.Nanos(), std::memory_order_relaxed);
}

template <typename Hit>
void Shard::ExecuteTwins(std::span<Request* const> twins) {
  std::vector<Hit> hits;
  const Status status = Answer(*twins[0], &hits);
  executed_queries_.fetch_add(1, std::memory_order_relaxed);
  dedup_hits_.fetch_add(twins.size() - 1, std::memory_order_relaxed);
  for (size_t i = 0; i < twins.size(); ++i) {
    const auto& result =
        std::get<std::shared_ptr<BasicResultState<Hit>>>(twins[i]->result);
    if (!status.ok()) {
      result->FailLeg(status);
    } else {
      // The last twin (or a lone request) takes the vector.
      result->CompleteLeg(i + 1 == twins.size() ? std::move(hits) : hits);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

Status Shard::Answer(const Request& request, std::vector<ObjectId>* ids) {
  index_->Query(request.query, &local_ids_);
  ToSortedGlobalIds(local_ids_, ids);
  return Status::OK();
}

Status Shard::Answer(const Request& request, std::vector<ScoredHit>* hits) {
  IRHINT_RETURN_NOT_OK(index_->TopKQuery(request.query, request.k, hits));
  // Scores are already global because scored shards never rebase
  // intervals (options_.localize == false).
  for (ScoredHit& hit : *hits) hit.id = id_map_[hit.id];
  return Status::OK();
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
  const std::shared_ptr<ResultState>& result = std::get<0>(request->result);
  if (status.ok()) {
    result->CompleteLeg({});
  } else {
    result->FailLeg(status);
  }
}

}  // namespace serve
}  // namespace irhint

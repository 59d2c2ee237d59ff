// Completion futures shared between the query router and the shard
// workers. A routed request owns one ResultState with one "leg" per
// target shard; legs complete (or fail) in any order on the shard worker
// threads, and the submitting client blocks in ResultFuture::Get() until
// every leg has landed. Each Boolean leg arrives sorted and
// duplicate-free (serve/shard.h), so the merge is deterministic and
// sort-free: a single leg is returned as is, several are folded with a
// linear sorted union that drops cross-shard replicas. The final result
// is byte-identical for any shard count, bucket count, thread count or
// completion order (the property tests/serve_test.cc locks in).
//
// Concurrency (DESIGN.md §11): one leaf Mutex per state object,
// "serve::ResultState::mu" — it is never held while acquiring another
// lock (completion moves the payload in, Wait() moves the legs out and
// merges with the lock released), so it cannot participate in a cycle.

#ifndef IRHINT_SERVE_RESULT_FUTURE_H_
#define IRHINT_SERVE_RESULT_FUTURE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "common/thread_annotations.h"
#include "data/object.h"

namespace irhint {
namespace serve {

/// \brief Shared completion state of one routed request.
///
/// Constructed with the number of legs (target shards); every leg must be
/// resolved exactly once via CompleteLeg() or FailLeg(). Queries carry id
/// payloads; updates use empty payloads and only the status matters.
class ResultState {
 public:
  explicit ResultState(uint32_t legs) : pending_(legs) {}

  ResultState(const ResultState&) = delete;
  ResultState& operator=(const ResultState&) = delete;

  /// \brief Resolve one leg with the ids a shard reported: global ids,
  /// sorted and duplicate-free (replicas across shards are deduplicated
  /// by the final merge).
  void CompleteLeg(std::vector<ObjectId> ids) {
    MutexLock lock(&mu_);
    legs_.push_back(std::move(ids));
    FinishLegLocked();
  }

  /// \brief Resolve one leg as failed (shed under admission control, or an
  /// update error). The first failure wins; the request still waits for
  /// the remaining legs so no completion is ever lost.
  void FailLeg(const Status& status) {
    MutexLock lock(&mu_);
    if (error_.ok() && !status.ok()) error_ = status;
    FinishLegLocked();
  }

  /// \brief Block until every leg resolved; single consumer. Returns the
  /// first leg failure, or the merged (sorted, duplicate-free) ids.
  StatusOr<std::vector<ObjectId>> Wait() {
    std::vector<std::vector<ObjectId>> legs;
    {
      MutexLock lock(&mu_);
      while (pending_ > 0) cv_.Wait(&mu_);
      if (!error_.ok()) return error_;
      legs.swap(legs_);
    }
    if (legs.empty()) return std::vector<ObjectId>();
    std::vector<ObjectId> merged = std::move(legs[0]);
    std::vector<ObjectId> scratch;
    for (size_t i = 1; i < legs.size(); ++i) {
      scratch.clear();
      scratch.reserve(merged.size() + legs[i].size());
      std::set_union(merged.begin(), merged.end(), legs[i].begin(),
                     legs[i].end(), std::back_inserter(scratch));
      merged.swap(scratch);
    }
    return merged;
  }

  /// \brief True once every leg has resolved (non-blocking probe).
  bool Ready() const {
    MutexLock lock(&mu_);
    return (pending_ == 0);
  }

 private:
  void FinishLegLocked() IRHINT_REQUIRES(mu_) {
    if (pending_ > 0) --pending_;
    if (pending_ == 0) cv_.NotifyAll();
  }

  mutable Mutex mu_{"serve::ResultState::mu"};
  CondVar cv_;
  uint32_t pending_ IRHINT_GUARDED_BY(mu_) = 0;
  std::vector<std::vector<ObjectId>> legs_ IRHINT_GUARDED_BY(mu_);
  Status error_ IRHINT_GUARDED_BY(mu_);
};

/// \brief Shared completion state of one routed top-k request
/// (DESIGN.md §12). Same leg protocol as ResultState, but legs carry
/// (id, score) hits and the merge keeps the ranked order: replicas of an
/// object across shards report identical scores (shards hold whole
/// objects and impacts are a pure function of term and interval), so the
/// merge dedups by id, re-sorts by the ranked total order (score desc,
/// id asc) and truncates to k — byte-identical to a 1-shard engine.
class TopKState {
 public:
  TopKState(uint32_t legs, uint32_t k) : pending_(legs), k_(k) {}

  TopKState(const TopKState&) = delete;
  TopKState& operator=(const TopKState&) = delete;

  /// \brief Resolve one leg with a shard's local top-k (global ids).
  void CompleteLeg(std::vector<ScoredHit> hits) {
    MutexLock lock(&mu_);
    legs_.push_back(std::move(hits));
    FinishLegLocked();
  }

  /// \brief Resolve one leg as failed; first failure wins, all legs are
  /// still awaited.
  void FailLeg(const Status& status) {
    MutexLock lock(&mu_);
    if (error_.ok() && !status.ok()) error_ = status;
    FinishLegLocked();
  }

  /// \brief Block until every leg resolved; single consumer. Returns the
  /// first leg failure, or the merged global top-k.
  StatusOr<std::vector<ScoredHit>> Wait() {
    MutexLock lock(&mu_);
    while (pending_ > 0) cv_.Wait(&mu_);
    if (!error_.ok()) return error_;
    std::vector<ScoredHit> merged;
    for (std::vector<ScoredHit>& leg : legs_) {
      merged.insert(merged.end(), leg.begin(), leg.end());
    }
    legs_.clear();
    std::sort(merged.begin(), merged.end(),
              [](const ScoredHit& a, const ScoredHit& b) {
                return a.id < b.id;
              });
    merged.erase(std::unique(merged.begin(), merged.end(),
                             [](const ScoredHit& a, const ScoredHit& b) {
                               return a.id == b.id;
                             }),
                 merged.end());
    std::sort(merged.begin(), merged.end(), ScoredBetter);
    if (merged.size() > static_cast<size_t>(k_)) merged.resize(k_);
    return merged;
  }

  bool Ready() const {
    MutexLock lock(&mu_);
    return (pending_ == 0);
  }

 private:
  void FinishLegLocked() IRHINT_REQUIRES(mu_) {
    if (pending_ > 0) --pending_;
    if (pending_ == 0) cv_.NotifyAll();
  }

  mutable Mutex mu_{"serve::ResultState::mu"};
  CondVar cv_;
  uint32_t pending_ IRHINT_GUARDED_BY(mu_) = 0;
  const uint32_t k_;  // unguarded: immutable after construction
  std::vector<std::vector<ScoredHit>> legs_ IRHINT_GUARDED_BY(mu_);
  Status error_ IRHINT_GUARDED_BY(mu_);
};

/// \brief Client-side handle on a submitted request. Move-friendly thin
/// wrapper; Get() blocks until the router's legs are all resolved.
class ResultFuture {
 public:
  ResultFuture() = default;
  explicit ResultFuture(std::shared_ptr<ResultState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool Ready() const { return state_ != nullptr && state_->Ready(); }

  /// \brief Block for the merged result (see ResultState::Wait).
  StatusOr<std::vector<ObjectId>> Get() {
    if (state_ == nullptr) {
      return Status::InvalidArgument("Get() on an empty ResultFuture");
    }
    return state_->Wait();
  }

 private:
  // unguarded: owned by the single client thread holding the future
  std::shared_ptr<ResultState> state_;
};

/// \brief Client-side handle on a submitted top-k request.
class TopKFuture {
 public:
  TopKFuture() = default;
  explicit TopKFuture(std::shared_ptr<TopKState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool Ready() const { return state_ != nullptr && state_->Ready(); }

  /// \brief Block for the merged ranked result (see TopKState::Wait).
  StatusOr<std::vector<ScoredHit>> Get() {
    if (state_ == nullptr) {
      return Status::InvalidArgument("Get() on an empty TopKFuture");
    }
    return state_->Wait();
  }

 private:
  // unguarded: owned by the single client thread holding the future
  std::shared_ptr<TopKState> state_;
};

}  // namespace serve
}  // namespace irhint

#endif  // IRHINT_SERVE_RESULT_FUTURE_H_

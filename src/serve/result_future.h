// Completion futures shared between the query router and the shard
// workers. A routed request owns one BasicResultState with one "leg" per
// target shard; legs complete (or fail) in any order on the shard worker
// threads, and the submitting client blocks in Get() until every leg has
// landed. Boolean queries carry ObjectId legs, top-k queries ScoredHit
// legs, and both share one merge rule: every leg arrives sorted under the
// hit's strict total order (LegBefore: ascending id, or ScoredBetter) and
// duplicate-free (serve/shard.h), so a single leg is returned as is and
// several are folded with a linear sorted union, then truncated to the
// request's limit (k for top-k, none for Boolean). Replicas of an object
// across shards are equal hits (scores are a pure function of the object,
// DESIGN.md §12), so the union drops them under either order. The final
// result is byte-identical for any shard count, bucket count, thread
// count or completion order (the property tests/serve_test.cc and
// tests/rank_test.cc lock in).
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
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "common/thread_annotations.h"
#include "data/object.h"

namespace irhint {
namespace serve {

/// \brief The strict total order every leg is sorted in and the merge
/// keeps: ascending ids for Boolean legs, ScoredBetter for ranked legs.
inline bool LegBefore(ObjectId a, ObjectId b) { return a < b; }
inline bool LegBefore(const ScoredHit& a, const ScoredHit& b) {
  return ScoredBetter(a, b);
}

/// \brief Shared completion state of one routed request.
///
/// Constructed with the number of legs (target shards); every leg must be
/// resolved exactly once via CompleteLeg() or FailLeg(). Updates use
/// ObjectId states with empty payloads; only the status matters.
template <typename Hit>
class BasicResultState {
 public:
  explicit BasicResultState(
      uint32_t legs, size_t limit = std::numeric_limits<size_t>::max())
      : pending_(legs), limit_(limit) {}

  BasicResultState(const BasicResultState&) = delete;
  BasicResultState& operator=(const BasicResultState&) = delete;

  /// \brief Resolve one leg with the hits a shard reported: global ids,
  /// sorted under LegBefore and duplicate-free (replicas across shards
  /// are dropped by the final merge).
  void CompleteLeg(std::vector<Hit> hits) {
    MutexLock lock(&mu_);
    legs_.push_back(std::move(hits));
    FinishLegLocked();
  }

  /// \brief Resolve one leg as failed (shed under admission control, an
  /// update error, or an index that cannot answer the query). The first
  /// failure wins; the request still waits for the remaining legs so no
  /// completion is ever lost.
  void FailLeg(const Status& status) {
    MutexLock lock(&mu_);
    if (error_.ok() && !status.ok()) error_ = status;
    FinishLegLocked();
  }

  /// \brief Block until every leg resolved; single consumer. Returns the
  /// first leg failure, or the merged hits (sorted under LegBefore,
  /// duplicate-free, at most `limit`).
  StatusOr<std::vector<Hit>> Wait() {
    std::vector<std::vector<Hit>> legs;
    {
      MutexLock lock(&mu_);
      while (pending_ > 0) cv_.Wait(&mu_);
      if (!error_.ok()) return error_;
      legs.swap(legs_);
    }
    if (legs.empty()) return std::vector<Hit>();
    std::vector<Hit> merged = std::move(legs[0]);
    std::vector<Hit> scratch;
    const auto before = [](const Hit& a, const Hit& b) {
      return LegBefore(a, b);
    };
    for (size_t i = 1; i < legs.size(); ++i) {
      scratch.clear();
      scratch.reserve(merged.size() + legs[i].size());
      std::set_union(merged.begin(), merged.end(), legs[i].begin(),
                     legs[i].end(), std::back_inserter(scratch), before);
      merged.swap(scratch);
    }
    if (merged.size() > limit_) merged.resize(limit_);
    return merged;
  }

 private:
  void FinishLegLocked() IRHINT_REQUIRES(mu_) {
    if (pending_ > 0) --pending_;
    if (pending_ == 0) cv_.NotifyAll();
  }

  Mutex mu_{"serve::ResultState::mu"};
  CondVar cv_;
  uint32_t pending_ IRHINT_GUARDED_BY(mu_) = 0;
  const size_t limit_;  // unguarded: immutable after construction
  std::vector<std::vector<Hit>> legs_ IRHINT_GUARDED_BY(mu_);
  Status error_ IRHINT_GUARDED_BY(mu_);
};

/// \brief Client-side handle on a submitted request. Move-friendly thin
/// wrapper; Get() blocks until the router's legs are all resolved.
template <typename Hit>
class BasicResultFuture {
 public:
  BasicResultFuture() = default;
  explicit BasicResultFuture(std::shared_ptr<BasicResultState<Hit>> state)
      : state_(std::move(state)) {}

  /// \brief Block for the merged result (see BasicResultState::Wait).
  StatusOr<std::vector<Hit>> Get() {
    if (state_ == nullptr) {
      return Status::InvalidArgument("Get() on an empty result future");
    }
    return state_->Wait();
  }

 private:
  // unguarded: owned by the single client thread holding the future
  std::shared_ptr<BasicResultState<Hit>> state_;
};

using ResultState = BasicResultState<ObjectId>;
using ResultFuture = BasicResultFuture<ObjectId>;
using TopKFuture = BasicResultFuture<ScoredHit>;

}  // namespace serve
}  // namespace irhint

#endif  // IRHINT_SERVE_RESULT_FUTURE_H_

// Tests of the sharded serving engine (src/serve/): routing/merge
// determinism against a 1-shard oracle and a NaiveScan ground truth,
// sorted legs from sparse and dense results, batching and duplicate
// coalescing (Boolean and top-k), admission control under a slow-shard
// fault (Boolean and top-k), live
// updates through the shard queues, durable mode, and the line-oriented
// server loop with its reply format and malformed-input handling.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/query_gen.h"
#include "data/synthetic.h"
#include "serve/engine.h"
#include "serve/server_loop.h"

namespace irhint {
namespace serve {
namespace {

using Ids = std::vector<ObjectId>;

Corpus TestCorpus(uint64_t cardinality = 1200, uint64_t seed = 13) {
  SyntheticParams params;
  params.cardinality = cardinality;
  params.domain = 200000;
  params.sigma = 40000;
  params.dictionary_size = 250;
  params.description_size = 6;
  params.seed = seed;
  return GenerateSynthetic(params);
}

std::vector<Query> TestQueries(const Corpus& corpus, size_t count = 60) {
  WorkloadGenerator generator(corpus, /*seed=*/3);
  std::vector<Query> queries =
      generator.ExtentWorkload(0.5, 1, count / 3);
  const std::vector<Query> wide = generator.ExtentWorkload(5.0, 2, count / 3);
  queries.insert(queries.end(), wide.begin(), wide.end());
  const std::vector<Query> stabs = generator.ExtentWorkload(0.0, 1, count / 3);
  queries.insert(queries.end(), stabs.begin(), stabs.end());
  return queries;
}

Ids MustGet(ResultFuture future) {
  StatusOr<Ids> result = future.Get();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *std::move(result) : Ids();
}

TEST(TermBucketTest, DeterministicAndInRange) {
  for (uint32_t buckets : {1u, 2u, 7u}) {
    for (ElementId e = 0; e < 1000; ++e) {
      const uint32_t b = TermBucket(e, buckets);
      EXPECT_LT(b, buckets);
      EXPECT_EQ(b, TermBucket(e, buckets));
    }
  }
}

// The acceptance property of the router: for every shard/bucket geometry
// the merged answer is byte-identical to a 1-shard engine over the same
// corpus (which itself must match the index answering directly).
TEST(ServeEngineTest, MergedResultsMatchOneShardOracle) {
  const Corpus corpus = TestCorpus();
  const std::vector<Query> queries = TestQueries(corpus);

  ServeOptions oracle_options;
  oracle_options.time_shards = 1;
  StatusOr<std::unique_ptr<ServeEngine>> oracle =
      ServeEngine::Create(corpus, oracle_options);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  std::vector<Ids> expected;
  expected.reserve(queries.size());
  for (const Query& query : queries) {
    expected.push_back(MustGet((*oracle)->Submit(query)));
  }

  for (const uint32_t shards : {2u, 3u, 5u}) {
    for (const uint32_t buckets : {1u, 3u}) {
      ServeOptions options;
      options.time_shards = shards;
      options.term_buckets = buckets;
      StatusOr<std::unique_ptr<ServeEngine>> engine =
          ServeEngine::Create(corpus, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ((*engine)->num_shards(), shards * buckets);
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(MustGet((*engine)->Submit(queries[i])), expected[i])
            << "query " << i << " diverges at " << shards << "x" << buckets;
      }
    }
  }
}

// Every geometry and two index kinds checked against NaiveScan itself, not
// against another engine that would share a leg bug. The query set holds
// sparse results, dense whole-domain results and objects replicated
// across time-shard boundaries, so the leg ordering and the cross-shard
// union are exercised.
TEST(ServeEngineTest, MatchesNaiveScanForEveryGeometryAndKind) {
  const Corpus corpus = TestCorpus();
  std::vector<Query> queries = TestQueries(corpus);
  for (ElementId e = 0; e < 8; ++e) {
    queries.push_back(Query(Interval(0, 200000), {e}));
  }

  std::unique_ptr<TemporalIrIndex> naive = CreateIndex(IndexKind::kNaiveScan);
  ASSERT_TRUE(naive->Build(corpus).ok());
  std::vector<Ids> expected;
  for (const Query& query : queries) {
    Ids want;
    naive->Query(query, &want);
    std::sort(want.begin(), want.end());
    expected.push_back(std::move(want));
  }

  for (const IndexKind kind : {IndexKind::kIrHintPerf, IndexKind::kTif}) {
    for (const uint32_t shards : {1u, 2u, 3u, 5u}) {
      for (const uint32_t buckets : {1u, 3u}) {
        ServeOptions options;
        options.kind = kind;
        options.time_shards = shards;
        options.term_buckets = buckets;
        StatusOr<std::unique_ptr<ServeEngine>> engine =
            ServeEngine::Create(corpus, options);
        ASSERT_TRUE(engine.ok()) << engine.status().ToString();
        size_t replicated = 0;
        for (size_t i = 0; i < queries.size(); ++i) {
          if (queries[i].elements.empty()) continue;  // irHINT contract
          EXPECT_EQ(MustGet((*engine)->Submit(queries[i])), expected[i])
              << "query " << i << " diverges at " << shards << "x" << buckets
              << " for " << IndexKindName(kind);
          for (const ObjectId id : expected[i]) {
            const Interval& lifespan = corpus.object(id).interval;
            for (size_t s = buckets; s < (*engine)->num_shards(); ++s) {
              const Time start = (*engine)->shard_time_range(s).st;
              if (lifespan.st < start && start <= lifespan.end) {
                ++replicated;
                break;
              }
            }
          }
        }
        if (shards > 1) {
          EXPECT_GT(replicated, 0u);
        }
      }
    }
  }
}

// Identical queries held back until they share one batch: each shard runs
// one descent per distinct query, and every twin, whether it got a copy
// or the moved vector, receives the full id list — Boolean and top-k.
TEST(ServeEngineTest, EveryBatchedTwinReceivesTheFullResult) {
  const Corpus corpus = TestCorpus();
  std::atomic<bool> release{false};
  std::atomic<size_t> held{0};
  ServeOptions options;
  options.time_shards = 2;
  options.batch_hook = [&](size_t) {
    held.fetch_add(1);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::unique_ptr<TemporalIrIndex> naive = CreateIndex(IndexKind::kNaiveScan);
  ASSERT_TRUE(naive->Build(corpus).ok());
  const Query wide(Interval(0, 200000), {1});
  const Query narrow(Interval(90000, 110000), {1, 2});
  Ids want_wide;
  Ids want_narrow;
  naive->Query(wide, &want_wide);
  naive->Query(narrow, &want_narrow);
  std::sort(want_wide.begin(), want_wide.end());
  std::sort(want_narrow.begin(), want_narrow.end());
  ASSERT_FALSE(want_wide.empty());

  // The blocker spans both shards; once both workers sit in the hook, the
  // twins queue up behind it and are popped as one batch per shard.
  ResultFuture blocker = (*engine)->Submit(Query(Interval(0, 200000), {3}));
  while (held.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  constexpr size_t kWideTwins = 5;
  constexpr size_t kNarrowTwins = 4;
  std::vector<ResultFuture> wide_futures;
  std::vector<ResultFuture> narrow_futures;
  for (size_t i = 0; i < kWideTwins; ++i) {
    wide_futures.push_back((*engine)->Submit(wide));
    if (i < kNarrowTwins) narrow_futures.push_back((*engine)->Submit(narrow));
  }
  release.store(true);
  MustGet(std::move(blocker));
  for (ResultFuture& future : wide_futures) {
    EXPECT_EQ(MustGet(std::move(future)), want_wide);
  }
  for (ResultFuture& future : narrow_futures) {
    EXPECT_EQ(MustGet(std::move(future)), want_narrow);
  }

  (*engine)->WaitIdle();
  const EngineStats stats = (*engine)->Stats();
  EXPECT_EQ(stats.total_dedup_hits, 2 * (kWideTwins - 1 + kNarrowTwins - 1));
  EXPECT_EQ(stats.total_executed_queries, 2u * 3u);

  // The ranked case on a scored engine: top-k twins share the query and
  // k; the same query at another k is another descent.
  release.store(false);
  held.store(0);
  options.kind = IndexKind::kScoredIrHint;
  StatusOr<std::unique_ptr<ServeEngine>> scored =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  std::unique_ptr<TemporalIrIndex> direct =
      CreateIndex(IndexKind::kScoredIrHint);
  ASSERT_TRUE(direct->Build(corpus).ok());
  std::vector<ScoredHit> want_top10;
  std::vector<ScoredHit> want_top3;
  ASSERT_TRUE(direct->TopKQuery(wide, 10, &want_top10).ok());
  ASSERT_TRUE(direct->TopKQuery(wide, 3, &want_top3).ok());
  ASSERT_EQ(want_top10.size(), 10u);

  TopKFuture ranked_blocker =
      (*scored)->SubmitTopK(Query(Interval(0, 200000), {3}), 10);
  while (held.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<TopKFuture> top10_futures;
  std::vector<TopKFuture> top3_futures;
  for (size_t i = 0; i < kWideTwins; ++i) {
    top10_futures.push_back((*scored)->SubmitTopK(wide, 10));
    if (i < kNarrowTwins) {
      top3_futures.push_back((*scored)->SubmitTopK(wide, 3));
    }
  }
  release.store(true);
  EXPECT_TRUE(ranked_blocker.Get().ok());
  for (TopKFuture& future : top10_futures) {
    const StatusOr<std::vector<ScoredHit>> got = future.Get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want_top10);
  }
  for (TopKFuture& future : top3_futures) {
    const StatusOr<std::vector<ScoredHit>> got = future.Get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want_top3);
  }

  (*scored)->WaitIdle();
  const EngineStats ranked_stats = (*scored)->Stats();
  EXPECT_EQ(ranked_stats.total_dedup_hits,
            2 * (kWideTwins - 1 + kNarrowTwins - 1));
  EXPECT_EQ(ranked_stats.total_executed_queries, 2u * 3u);
}

// Same property under concurrent submitters: many client threads racing
// into the shard queues must not change any answer.
TEST(ServeEngineTest, ConcurrentSubmittersGetIdenticalAnswers) {
  const Corpus corpus = TestCorpus();
  const std::vector<Query> queries = TestQueries(corpus);

  ServeOptions oracle_options;
  oracle_options.time_shards = 1;
  StatusOr<std::unique_ptr<ServeEngine>> oracle =
      ServeEngine::Create(corpus, oracle_options);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  std::vector<Ids> expected;
  for (const Query& query : queries) {
    expected.push_back(MustGet((*oracle)->Submit(query)));
  }

  ServeOptions options;
  options.time_shards = 4;
  options.term_buckets = 2;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 3;
  std::vector<std::vector<Ids>> got(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (size_t c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c]() {
      for (size_t round = 0; round < kRounds; ++round) {
        for (const Query& query : queries) {
          StatusOr<Ids> result = (*engine)->Execute(query);
          got[c].push_back(result.ok() ? *std::move(result) : Ids());
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (size_t c = 0; c < kThreads; ++c) {
    ASSERT_EQ(got[c].size(), kRounds * queries.size());
    for (size_t i = 0; i < got[c].size(); ++i) {
      EXPECT_EQ(got[c][i], expected[i % queries.size()])
          << "client " << c << " request " << i;
    }
  }
}

// Element-less queries cannot pick a term bucket, so the router must fan
// them out to every bucket of each overlapping time shard. Results are
// empty either way (the library-wide contract for element-less queries),
// so the routing is observed through the per-shard submitted counters.
TEST(ServeEngineTest, EmptyElementQueriesFanOutToAllBuckets) {
  const Corpus corpus = TestCorpus(600);
  ServeOptions options;
  options.time_shards = 3;
  options.term_buckets = 4;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Full-domain interval: overlaps all 3 time shards x 4 buckets.
  EXPECT_EQ(MustGet((*engine)->Submit(Query(Interval(0, 200000), {}))), Ids());
  (*engine)->WaitIdle();
  EngineStats stats = (*engine)->Stats();
  EXPECT_EQ(stats.total_submitted, 12u);
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.submitted, 1u);
  }

  // A query with elements routes to exactly one bucket per time shard.
  EXPECT_TRUE((*engine)->Execute(Query(Interval(0, 200000), {1})).ok());
  (*engine)->WaitIdle();
  stats = (*engine)->Stats();
  EXPECT_EQ(stats.total_submitted, 15u);
}

// Live updates ride the shard queues: inserts spanning shard boundaries
// become visible everywhere, erases tombstone every replica, and the
// engine keeps matching a NaiveScan subjected to the same stream.
TEST(ServeEngineTest, LiveInsertAndEraseStayConsistent) {
  const Corpus corpus = TestCorpus(800);
  const size_t offline = corpus.size() * 9 / 10;
  const Corpus prefix = corpus.Prefix(offline);

  ServeOptions options;
  options.time_shards = 3;
  options.term_buckets = 2;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(prefix, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->next_object_id(), offline);

  std::unique_ptr<TemporalIrIndex> reference =
      CreateIndex(IndexKind::kNaiveScan);
  ASSERT_TRUE(reference->Build(prefix).ok());

  const std::vector<Query> queries = TestQueries(corpus, 30);
  auto expect_match = [&](const char* stage) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].elements.empty()) continue;  // irHINT contract
      Ids want;
      reference->Query(queries[i], &want);
      std::sort(want.begin(), want.end());
      ASSERT_EQ(MustGet((*engine)->Submit(queries[i])), want)
          << stage << ": query " << i;
    }
  };
  expect_match("after build");

  for (size_t i = offline; i < corpus.size(); ++i) {
    const Object& object = corpus.object(static_cast<ObjectId>(i));
    ASSERT_TRUE((*engine)->Insert(object).ok());
    ASSERT_TRUE(reference->Insert(object).ok());
  }
  expect_match("after live inserts");
  EXPECT_EQ((*engine)->next_object_id(), corpus.size());

  // Out-of-order / duplicate ids are rejected up front.
  EXPECT_TRUE((*engine)->Insert(corpus.object(0)).IsInvalidArgument());

  for (ObjectId id = 0; id < corpus.size(); id += 3) {
    ASSERT_TRUE((*engine)->Erase(corpus.object(id)).ok());
    ASSERT_TRUE(reference->Erase(corpus.object(id)).ok());
  }
  expect_match("after erases");

  const EngineStats stats = (*engine)->Stats();
  EXPECT_GT(stats.total_updates_applied, 0u);
}

// Durable mode: every shard persists through its own WAL directory, live
// AppendInsert survives the queues, and Flush syncs all shards.
TEST(ServeEngineTest, DurableModeServesAndIngests) {
  const Corpus corpus = TestCorpus(400);
  const std::string dir =
      std::string(::testing::TempDir()) + "/serve_durable_test";
  std::filesystem::remove_all(dir);  // the engine requires a fresh dir

  ServeOptions options;
  options.time_shards = 2;
  options.term_buckets = 2;
  options.wal_dir = dir;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::unique_ptr<TemporalIrIndex> reference =
      CreateIndex(IndexKind::kNaiveScan);
  ASSERT_TRUE(reference->Build(corpus).ok());

  // Live ingestion with engine-assigned ids, mirrored into the reference.
  for (int i = 0; i < 20; ++i) {
    const Time st = static_cast<Time>(1000 * i);
    const Interval interval(st, st + 5000);
    std::vector<ElementId> elements = {static_cast<ElementId>(i % 7),
                                       static_cast<ElementId>(100 + i)};
    StatusOr<ObjectId> id = (*engine)->AppendInsert(interval, elements);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    std::sort(elements.begin(), elements.end());
    ASSERT_TRUE(reference->Insert(Object(*id, interval, elements)).ok());
  }
  ASSERT_TRUE((*engine)->Flush().ok());

  const std::vector<Query> queries = TestQueries(corpus, 30);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].elements.empty()) continue;
    Ids want;
    reference->Query(queries[i], &want);
    std::sort(want.begin(), want.end());
    ASSERT_EQ(MustGet((*engine)->Submit(queries[i])), want) << "query " << i;
  }

  // A second engine over the same (now dirty) directory must refuse — the
  // sharded layout is not recoverable across runs yet.
  StatusOr<std::unique_ptr<ServeEngine>> second =
      ServeEngine::Create(corpus, options);
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsInvalidArgument())
      << second.status().ToString();
}

// Admission control under a slow-shard fault: a sleep hook makes every
// batch slow, the queue bound is tiny, and an open-loop burst must shed
// (kUnavailable) rather than queue without limit — and still drain.
TEST(ServeEngineTest, SlowShardShedsAtBoundedDepth) {
  const Corpus corpus = TestCorpus(300);
  ServeOptions options;
  options.time_shards = 1;  // one queue, so the burst targets one worker
  options.max_queue_depth = 8;
  options.batch_hook = [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const Query query(Interval(0, 200000), {1});
  std::vector<ResultFuture> futures;
  futures.reserve(200);
  for (int i = 0; i < 200; ++i) futures.push_back((*engine)->Submit(query));

  size_t ok = 0, shed = 0;
  for (ResultFuture& future : futures) {
    const StatusOr<Ids> result = future.Get();
    if (result.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(result.status().IsUnavailable())
          << result.status().ToString();
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);

  (*engine)->WaitIdle();
  const EngineStats stats = (*engine)->Stats();
  EXPECT_EQ(stats.total_shed, shed);
  EXPECT_LE(stats.max_peak_queue_depth, options.max_queue_depth);
  EXPECT_EQ(stats.max_queue_depth, 0u);  // drained

  // The engine still answers once the burst is over (no deadlock, no
  // poisoned worker).
  EXPECT_TRUE((*engine)->Execute(query).ok());

  // A ranked burst on a scored engine sheds and drains the same way.
  options.kind = IndexKind::kScoredIrHint;
  StatusOr<std::unique_ptr<ServeEngine>> scored =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  std::vector<TopKFuture> ranked_futures;
  ranked_futures.reserve(200);
  for (int i = 0; i < 200; ++i) {
    ranked_futures.push_back((*scored)->SubmitTopK(query, 10));
  }
  size_t ranked_ok = 0, ranked_shed = 0;
  for (TopKFuture& future : ranked_futures) {
    const StatusOr<std::vector<ScoredHit>> result = future.Get();
    if (result.ok()) {
      ++ranked_ok;
    } else {
      ASSERT_TRUE(result.status().IsUnavailable())
          << result.status().ToString();
      ++ranked_shed;
    }
  }
  EXPECT_GT(ranked_ok, 0u);
  EXPECT_GT(ranked_shed, 0u);

  (*scored)->WaitIdle();
  const EngineStats ranked_stats = (*scored)->Stats();
  EXPECT_EQ(ranked_stats.total_shed, ranked_shed);
  EXPECT_LE(ranked_stats.max_peak_queue_depth, options.max_queue_depth);
  EXPECT_EQ(ranked_stats.max_queue_depth, 0u);
  EXPECT_TRUE((*scored)->ExecuteTopK(query, 10).ok());
}

// Batch coalescing: with the worker pinned slow, a burst of one popular
// query must collapse into few batches with most duplicates served by a
// twin's descent.
TEST(ServeEngineTest, BatchingCoalescesDuplicateQueries) {
  const Corpus corpus = TestCorpus(300);
  ServeOptions options;
  options.time_shards = 1;
  options.max_queue_depth = 256;
  options.max_batch = 64;
  options.batch_hook = [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const Query popular(Interval(0, 100000), {2});
  std::vector<ResultFuture> futures;
  for (int i = 0; i < 100; ++i) futures.push_back((*engine)->Submit(popular));
  Ids first = MustGet(futures.front());
  for (size_t i = 1; i < futures.size(); ++i) {
    EXPECT_EQ(MustGet(std::move(futures[i])), first);
  }

  const EngineStats stats = (*engine)->Stats();
  EXPECT_GT(stats.total_dedup_hits, 0u);
  EXPECT_LT(stats.total_batches, 100u);
  EXPECT_EQ(stats.total_executed_queries + stats.total_dedup_hits, 100u);
}

TEST(ServeEngineTest, RejectsInvalidOptions) {
  const Corpus corpus = TestCorpus(100);
  ServeOptions options;
  options.time_shards = 0;
  EXPECT_FALSE(ServeEngine::Create(corpus, options).ok());
  options.time_shards = 2;
  options.max_queue_depth = 0;
  EXPECT_FALSE(ServeEngine::Create(corpus, options).ok());
}

TEST(ServeEngineTest, ClampsShardsToTinyDomains) {
  Corpus corpus;
  corpus.Append(Interval(0, 1), {1});
  corpus.Append(Interval(1, 2), {2});
  corpus.DeclareDomain(2);
  ASSERT_TRUE(corpus.Finalize().ok());

  ServeOptions options;
  options.time_shards = 64;  // domain has 3 points; must clamp, not crash
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_LE((*engine)->time_shards(), 3u);
  EXPECT_EQ(MustGet((*engine)->Submit(Query(Interval(0, 2), {1}))), Ids{0});
}

// The server loop speaks the documented protocol over plain streams.
TEST(ServerLoopTest, SpeaksTheLineProtocol) {
  Corpus corpus;
  corpus.Append(Interval(0, 10), {1, 2});
  corpus.Append(Interval(5, 20), {2, 3});
  corpus.DeclareDomain(1000);
  ASSERT_TRUE(corpus.Finalize().ok());

  ServeOptions options;
  options.time_shards = 2;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::istringstream in(
      "# comment\n"
      "\n"
      "query 0 10 2\n"
      "insert 8 30 2 9\n"
      "query 0 10 2\n"
      "erase 0 0 10 1 2\n"
      "query 0 10 2\n"
      "bogus\n"
      "stats\n"
      "flush\n"
      "quit\n"
      "query 0 10 2\n");  // after quit: must not run
  std::ostringstream out;
  const size_t commands = RunServerLoop(engine->get(), in, out);
  EXPECT_EQ(commands, 9u);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK 2 0 1");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK id=2");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK 3 0 1 2");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK");  // erase
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK 2 1 2");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.substr(0, 3), "ERR");  // bogus command
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.substr(0, 11), "stat shards");
  bool saw_bye = false;
  while (std::getline(lines, line)) saw_bye = (line == "BYE");
  EXPECT_TRUE(saw_bye);
}

// Query replies are built with to_chars in one buffer; they must stay
// byte-identical to the stream format, ids at the top of the 32-bit range
// included. Every malformed line is answered ERR and changes nothing.
TEST(ServerLoopTest, RepliesMatchTheStreamFormatAndRejectMalformedLines) {
  Corpus corpus;
  corpus.Append(Interval(0, 10), {1, 2});
  corpus.Append(Interval(5, 20), {2, 3});
  corpus.DeclareDomain(1000);
  ASSERT_TRUE(corpus.Finalize().ok());

  ServeOptions options;
  options.time_shards = 2;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // The engine accepts any increasing id; these straddle both shards, so
  // the reply is a two-leg union.
  const Ids high = {4294967290u, 4294967292u, 4294967294u};
  for (const ObjectId id : high) {
    ASSERT_TRUE((*engine)->Insert(Object(id, Interval(100, 900), {7})).ok());
  }
  std::ostringstream stream_format;
  stream_format << "OK " << high.size();
  for (const ObjectId id : high) stream_format << " " << id;
  stream_format << "\n";

  std::istringstream in(
      "query 0 1000 7\n"
      "query 0 1000 8\n"
      "query 0 1000000 abc\n"
      "query 100 0 1\n"
      "insert 0 10 4294967295\n"
      "query 0 10 2x\n"
      "query 0\n"
      "topk 1 0 10 -1\n"
      "erase 0 10 5 1\n"
      "query 0 1000 7\r\n");
  std::ostringstream out;
  EXPECT_EQ(RunServerLoop(engine->get(), in, out), 10u);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line + "\n", stream_format.str());
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK 0");
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.rfind("ERR ", 0), 0u) << "malformed line " << i << ": "
                                         << line;
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line + "\n", stream_format.str());
  EXPECT_FALSE(std::getline(lines, line));
  EXPECT_EQ((*engine)->next_object_id(), 4294967295u);
  // The engine API applies the same rule as the parser.
  EXPECT_TRUE((*engine)
                  ->AppendInsert(Interval(0, 10), {kElementIdLimit})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace serve
}  // namespace irhint

#include "ir/intersect.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/factory.h"
#include "core/naive_scan.h"
#include "data/synthetic.h"

namespace irhint {
namespace {

using Ids = std::vector<ObjectId>;

Ids ReferenceIntersect(Ids a, Ids b) {
  a.erase(std::remove(a.begin(), a.end(), kTombstoneId), a.end());
  b.erase(std::remove(b.begin(), b.end(), kTombstoneId), b.end());
  Ids out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(IntersectTest, MergeBasics) {
  Ids out;
  IntersectMerge(Ids{1, 3, 5}, Ids{2, 3, 4, 5}, &out);
  EXPECT_EQ(out, (Ids{3, 5}));
  out.clear();
  IntersectMerge(Ids{}, Ids{1, 2}, &out);
  EXPECT_TRUE(out.empty());
  out.clear();
  IntersectMerge(Ids{1, 2}, Ids{}, &out);
  EXPECT_TRUE(out.empty());
  out.clear();
  IntersectMerge(Ids{7}, Ids{7}, &out);
  EXPECT_EQ(out, Ids{7});
}

TEST(IntersectTest, MergeSkipsTombstonesInPlace) {
  // Tombstones keep their slot; live subsequence remains sorted.
  Ids a{1, kTombstoneId, 5, 9};
  Ids b{kTombstoneId, 5, 9, kTombstoneId};
  Ids out;
  IntersectMerge(a, b, &out);
  EXPECT_EQ(out, (Ids{5, 9}));
}

TEST(IntersectTest, KernelWithPostings) {
  PostingsList list{{2, 0, 1}, {4, 0, 1}, {kTombstoneId, 0, 1}, {6, 0, 1}};
  Ids out;
  IntersectCandidates(Ids{1, 2, 5, 6}, SplitList<Posting>{list, {}},
                      /*list_tombstone_free=*/false, &out);
  EXPECT_EQ(out, (Ids{2, 6}));
}

TEST(IntersectTest, BinaryAndGallopingMatchMerge) {
  Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    Ids a, b;
    const size_t na = 1 + rng.Uniform(200);
    const size_t nb = 1 + rng.Uniform(2000);
    for (size_t i = 0; i < na; ++i) {
      a.push_back(static_cast<ObjectId>(rng.Uniform(3000)));
    }
    for (size_t i = 0; i < nb; ++i) {
      b.push_back(static_cast<ObjectId>(rng.Uniform(3000)));
    }
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());

    const Ids expected = ReferenceIntersect(a, b);
    Ids merge, binary, gallop;
    IntersectMerge(a, b, &merge);
    IntersectBinary(a, b, &binary);
    IntersectGalloping(a, b, &gallop);
    EXPECT_EQ(merge, expected);
    EXPECT_EQ(binary, expected);
    EXPECT_EQ(gallop, expected);
  }
}

TEST(IntersectTest, GallopingHandlesExtremes) {
  Ids out;
  IntersectGalloping(Ids{0}, Ids{0, 1, 2, 3}, &out);
  EXPECT_EQ(out, Ids{0});
  out.clear();
  IntersectGalloping(Ids{3}, Ids{0, 1, 2, 3}, &out);
  EXPECT_EQ(out, Ids{3});
  out.clear();
  IntersectGalloping(Ids{5}, Ids{0, 1, 2, 3}, &out);
  EXPECT_TRUE(out.empty());
  out.clear();
  IntersectGalloping(Ids{}, Ids{}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectTest, SortedContains) {
  const Ids v{2, 4, 6};
  EXPECT_TRUE(SortedContains(v, 2));
  EXPECT_TRUE(SortedContains(v, 6));
  EXPECT_FALSE(SortedContains(v, 5));
  EXPECT_FALSE(SortedContains({}, 1));
}

// ---- IntersectCandidates: the kernel every index query runs ----

constexpr ObjectId kTop = kTombstoneId - 1;  // the largest live id
constexpr ObjectId kPrefix = 4242;           // shows the kernel appends

// An element list in two runs, as DivisionPostings hands it over.
template <typename Entry>
struct TestList {
  std::vector<Entry> core;
  std::vector<Entry> delta;
  bool tombstone_free = true;
};

// Entries for `ids` (kTombstoneId marks a tombstone); the first
// `core_size` go to the core run, the rest to the delta run.
template <typename Entry>
TestList<Entry> MakeList(const Ids& ids, size_t core_size) {
  TestList<Entry> list;
  for (size_t i = 0; i < ids.size(); ++i) {
    Entry entry;
    entry.id = ids[i];
    (i < core_size ? list.core : list.delta).push_back(entry);
    if (ids[i] == kTombstoneId) list.tombstone_free = false;
  }
  return list;
}

template <typename Entry>
Ids RunKernel(const Ids& candidates, const TestList<Entry>& list) {
  Ids out{kPrefix};
  IntersectCandidates(candidates, SplitList<Entry>{list.core, list.delta},
                      list.tombstone_free, &out);
  EXPECT_EQ(out.front(), kPrefix);
  out.erase(out.begin());
  return out;
}

IntersectMethod MethodFor(const Ids& candidates, const Ids& list_ids) {
  const bool tombstone_free =
      std::find(list_ids.begin(), list_ids.end(), kTombstoneId) ==
      list_ids.end();
  return ChooseIntersectMethod(candidates, list_ids.size(), tombstone_free);
}

// Checks the kernel against std::set_intersection over live ids, for both
// entry types and every core/delta split of the list.
void ExpectKernelMatches(const Ids& candidates, const Ids& list_ids) {
  const Ids expected = ReferenceIntersect(candidates, list_ids);
  for (size_t core = 0; core <= list_ids.size(); ++core) {
    EXPECT_EQ(RunKernel(candidates, MakeList<Posting>(list_ids, core)),
              expected)
        << "core run of " << core << " postings";
    EXPECT_EQ(RunKernel(candidates, MakeList<IdEntry>(list_ids, core)),
              expected)
        << "core run of " << core << " id entries";
  }
}

// Sorted, duplicate-free ids drawn from [lo, lo + width).
Ids RandomIds(Rng* rng, size_t n, uint64_t lo, uint64_t width) {
  Ids ids;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<ObjectId>(lo + rng->Uniform(width)));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TEST(IntersectKernelTest, RandomListsMatchSetIntersection) {
  Rng rng(2024);
  size_t used[3] = {0, 0, 0};
  for (int round = 0; round < 600; ++round) {
    // Id spaces from dense to sparse, one of them at the top of the range.
    const uint64_t widths[] = {200, 5000, 1u << 20, uint64_t{1} << 31};
    const uint64_t width = widths[rng.Uniform(4)];
    const uint64_t lo = rng.Uniform(2) == 0 ? 0 : uint64_t{kTop} + 1 - width;
    const Ids candidates =
        RandomIds(&rng, rng.Uniform(1 + rng.Uniform(300)), lo, width);
    Ids list_ids = RandomIds(&rng, rng.Uniform(1 + rng.Uniform(3000)), lo,
                             width);
    // Make hits likely: merge in about half of the candidates.
    for (ObjectId id : candidates) {
      if (rng.Uniform(2) == 0) list_ids.push_back(id);
    }
    std::sort(list_ids.begin(), list_ids.end());
    list_ids.erase(std::unique(list_ids.begin(), list_ids.end()),
                   list_ids.end());
    // Tombstones overwrite ids in place, in a third of the rounds.
    if (!list_ids.empty() && rng.Uniform(3) == 0) {
      const size_t count = 1 + rng.Uniform(1 + list_ids.size() / 8);
      for (size_t i = 0; i < count; ++i) {
        list_ids[rng.Uniform(list_ids.size())] = kTombstoneId;
      }
    }
    const IntersectMethod method = MethodFor(candidates, list_ids);
    ++used[static_cast<int>(method)];

    const Ids expected = ReferenceIntersect(candidates, list_ids);
    const size_t core = rng.Uniform(list_ids.size() + 1);
    ASSERT_EQ(RunKernel(candidates, MakeList<Posting>(list_ids, core)),
              expected)
        << "round " << round << " method " << static_cast<int>(method);
    ASSERT_EQ(RunKernel(candidates, MakeList<IdEntry>(list_ids, core)),
              expected)
        << "round " << round << " method " << static_cast<int>(method);
  }
  // Every method ran on a fair share of the rounds.
  EXPECT_GE(used[static_cast<int>(IntersectMethod::kProbe)], 30u);
  EXPECT_GE(used[static_cast<int>(IntersectMethod::kBitmap)], 30u);
  EXPECT_GE(used[static_cast<int>(IntersectMethod::kMerge)], 30u);
}

TEST(IntersectKernelTest, TombstonesAtFirstMiddleAndLastPositions) {
  const ObjectId T = kTombstoneId;
  // Dense candidates: the bitmap.
  const Ids dense{2, 4, 6, 8, 10, 12};
  const Ids dense_list{T, 3, 4, 6, T, 10, 11, 12, T};
  ASSERT_EQ(MethodFor(dense, dense_list), IntersectMethod::kBitmap);
  ExpectKernelMatches(dense, dense_list);
  // Sparse candidates: the merge.
  const Ids sparse{4, 100000, 200000};
  const Ids sparse_list{T, 4, 7, T, 100000, 150000, 200000, T};
  ASSERT_EQ(MethodFor(sparse, sparse_list), IntersectMethod::kMerge);
  ExpectKernelMatches(sparse, sparse_list);
}

TEST(IntersectKernelTest, IdsNearTheTopOfTheIdSpace) {
  const ObjectId T = kTombstoneId;
  // Bitmap: the span ends at the largest live id, and a tombstone, one
  // past it, must land on the sentinel bit.
  const Ids top{kTop - 130, kTop - 64, kTop - 1, kTop};
  const Ids top_list{kTop - 200, kTop - 130, kTop - 2, kTop, T};
  ASSERT_EQ(MethodFor(top, top_list), IntersectMethod::kBitmap);
  ExpectKernelMatches(top, top_list);
  // Merge: a span over the whole id space.
  const Ids wide{0, kTop};
  const Ids wide_list{0, 5, kTop, T};
  ASSERT_EQ(MethodFor(wide, wide_list), IntersectMethod::kMerge);
  ExpectKernelMatches(wide, wide_list);
  // Probe: one candidate against a long tombstone-free list.
  Ids long_list;
  for (ObjectId i = 40; i > 0; --i) long_list.push_back(kTop - 2 * (i - 1));
  ASSERT_EQ(long_list.back(), kTop);
  for (const ObjectId id : {kTop, kTop - 1, kTop - 78}) {
    ASSERT_EQ(MethodFor(Ids{id}, long_list), IntersectMethod::kProbe);
    ExpectKernelMatches(Ids{id}, long_list);
  }
}

TEST(IntersectKernelTest, EmptyAndSingleCandidateSides) {
  const ObjectId T = kTombstoneId;
  ExpectKernelMatches(Ids{}, Ids{1, 2, 3});
  ExpectKernelMatches(Ids{}, Ids{1, T, 3});
  ExpectKernelMatches(Ids{}, Ids{});
  ExpectKernelMatches(Ids{5}, Ids{});
  ExpectKernelMatches(Ids{1, 9}, Ids{});
  // One candidate: a bitmap of one word, or a probe of a long list.
  for (const ObjectId id : {ObjectId{0}, ObjectId{5}, ObjectId{6}, kTop}) {
    ASSERT_EQ(MethodFor(Ids{id}, Ids{5, T}), IntersectMethod::kBitmap);
    ExpectKernelMatches(Ids{id}, Ids{5, T});
    ExpectKernelMatches(Ids{id}, Ids{T});
    Ids long_list;
    for (ObjectId i = 0; i < 40; ++i) long_list.push_back(3 * i);
    ASSERT_EQ(MethodFor(Ids{id}, long_list), IntersectMethod::kProbe);
    ExpectKernelMatches(Ids{id}, long_list);
  }
  // One list entry against many candidates.
  ExpectKernelMatches(Ids{1, 2, 3, 70, 900}, Ids{70});
  ExpectKernelMatches(Ids{1, 2, 3, 70, 900}, Ids{71});
}

TEST(IntersectKernelTest, SpansJustInsideAndJustOutsideTheDensityRule) {
  // Two candidates and six list entries allow 4 x (6 + 2) = 32 words, i.e.
  // a span of at most 32 x 64 = 2048 ids. The list reaches below and
  // above the candidates' span.
  const ObjectId base = 100;
  for (const ObjectId last : {base + 2047, base + 2048}) {
    const Ids candidates{base, last};
    const Ids list_ids{0, base, base + 50, last, last + 1, last + 64};
    ASSERT_EQ(MethodFor(candidates, list_ids),
              last == base + 2047 ? IntersectMethod::kBitmap
                                  : IntersectMethod::kMerge);
    ExpectKernelMatches(candidates, list_ids);
  }
}

TEST(IntersectKernelTest, CoreAndDeltaRunsInEveryMethod) {
  // 100 even ids; ExpectKernelMatches splits them at every position.
  Ids list_ids;
  for (ObjectId i = 0; i < 100; ++i) list_ids.push_back(2 * i);
  const Ids probe{3, 40, 120, 198, 199};
  ASSERT_EQ(MethodFor(probe, list_ids), IntersectMethod::kProbe);
  ExpectKernelMatches(probe, list_ids);
  Ids dense;
  for (ObjectId i = 0; i < 200; i += 3) dense.push_back(i);
  ASSERT_EQ(MethodFor(dense, list_ids), IntersectMethod::kBitmap);
  ExpectKernelMatches(dense, list_ids);
  Ids sparse = dense;
  sparse.push_back(50'000'000);
  ASSERT_EQ(MethodFor(sparse, list_ids), IntersectMethod::kMerge);
  ExpectKernelMatches(sparse, list_ids);
  // Tombstones in both runs turn the probe into a bitmap or a merge.
  list_ids[10] = kTombstoneId;
  list_ids[90] = kTombstoneId;
  ASSERT_NE(MethodFor(probe, list_ids), IntersectMethod::kProbe);
  ExpectKernelMatches(probe, list_ids);
  ExpectKernelMatches(dense, list_ids);
  ExpectKernelMatches(sparse, list_ids);
}

TEST(IntersectKernelTest, ConsecutiveBitmapCallsSeeNoStaleBits) {
  // Each call shifts the span's base, so a bit left set by the previous
  // call would shift onto a list id that is not a candidate. The trailing
  // tombstone rules out probing.
  Ids all;
  for (ObjectId i = 0; i < 512; ++i) all.push_back(i);
  Ids list_ids = all;
  list_ids.push_back(kTombstoneId);
  const std::vector<Ids> calls = {all, Ids{1, 511}, Ids{0, 130}, all,
                                  Ids{64, 65}, Ids{3}};
  for (const Ids& candidates : calls) {
    ASSERT_EQ(MethodFor(candidates, list_ids), IntersectMethod::kBitmap);
    EXPECT_EQ(RunKernel(candidates, MakeList<IdEntry>(list_ids, 256)),
              candidates);
  }
}

// ---- The per-thread bitmap under concurrent index queries ----

// Four threads query one irHINT-perf and one irHINT-size at once, each in
// its own order, and every answer must equal NaiveScan's. The indexes hold
// core and delta runs and tombstones, so every kernel method runs. A bit
// leaked between queries, or shared between threads, shows as a wrong id.
TEST(IntersectConcurrencyTest, ThreadsQueryDivisionIndexesAtOnce) {
  SyntheticParams params;
  params.cardinality = 4000;
  params.domain = 100000;
  params.alpha = 1.1;
  params.sigma = 20000;
  params.dictionary_size = 40;
  params.description_size = 6;
  params.zeta = 1.2;
  params.seed = 31;
  const Corpus corpus = GenerateSynthetic(params);
  const size_t offline = corpus.size() * 4 / 5;

  NaiveScan oracle;
  ASSERT_TRUE(oracle.Build(corpus).ok());
  IndexConfig config;
  config.irhint_bits = 6;
  std::vector<std::unique_ptr<TemporalIrIndex>> indexes;
  for (const IndexKind kind : {IndexKind::kIrHintPerf, IndexKind::kIrHintSize}) {
    indexes.push_back(CreateIndex(kind, config));
    TemporalIrIndex& index = *indexes.back();
    ASSERT_TRUE(index.Build(corpus.Prefix(offline)).ok());
    for (size_t i = offline; i < corpus.size(); ++i) {
      ASSERT_TRUE(index.Insert(corpus.object(static_cast<ObjectId>(i))).ok());
    }
  }
  for (size_t i = 0; i < corpus.size(); i += 7) {
    const Object& object = corpus.object(static_cast<ObjectId>(i));
    ASSERT_TRUE(oracle.Erase(object).ok());
    for (auto& index : indexes) ASSERT_TRUE(index->Erase(object).ok());
  }

  // Queries in pairs over one interval: four elements first, which often
  // empty the candidates part-way through a division, then two.
  Rng rng(32);
  std::vector<Query> queries;
  const Time domain_end = corpus.domain_end();
  for (int i = 0; i < 60; ++i) {
    const Time st = rng.Uniform(domain_end + 1);
    const Time end = std::min(domain_end, st + rng.Uniform(domain_end / 3));
    std::vector<ElementId> elements;
    for (int j = 0; j < 4; ++j) {
      elements.push_back(
          static_cast<ElementId>(rng.Uniform(corpus.dictionary().size())));
    }
    queries.emplace_back(Interval(st, end), elements);
    elements.resize(2);
    queries.emplace_back(Interval(st, end), elements);
  }
  std::vector<Ids> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    oracle.Query(queries[i], &expected[i]);
    std::sort(expected[i].begin(), expected[i].end());
  }

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> answered{0};
  auto worker = [&](size_t t) {
    Ids actual;
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t k = 0; k < queries.size(); ++k) {
        // Each thread starts its pairs at a different place.
        const size_t q = (k + t * 2 * 17) % queries.size();
        for (const auto& index : indexes) {
          index->Query(queries[q], &actual);
          std::sort(actual.begin(), actual.end());
          if (actual != expected[q]) ++mismatches;
          ++answered;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) threads.emplace_back(worker, t);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(answered.load(), 4u * 3u * queries.size() * indexes.size());
}

}  // namespace
}  // namespace irhint

// Cross-index property suite: every time-travel IR index in the library
// must return exactly the same result sets as the naive full-scan oracle,
// on randomized corpora, across query shapes, and through update batches.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/factory.h"
#include "core/naive_scan.h"
#include "data/corpus.h"
#include "data/synthetic.h"

namespace irhint {
namespace {

Corpus SmallSynthetic(uint64_t seed, uint64_t cardinality = 2000) {
  SyntheticParams params;
  params.cardinality = cardinality;
  params.domain = 100000;
  params.alpha = 1.1;
  params.sigma = 20000;
  params.dictionary_size = 50;  // small dictionary -> dense co-occurrence
  params.description_size = 6;
  params.zeta = 1.2;
  params.seed = seed;
  return GenerateSynthetic(params);
}

std::vector<Query> RandomQueries(const Corpus& corpus, size_t count,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries;
  const Time domain_end = corpus.domain_end();
  for (size_t i = 0; i < count; ++i) {
    const Time st = rng.Uniform(domain_end + 1);
    const Time length = 1 + rng.Uniform(domain_end / 4);
    const Time end = std::min(domain_end, st + length);
    const uint32_t k =
        1 + static_cast<uint32_t>(rng.Uniform(4));  // |q.d| in 1..4
    std::vector<ElementId> elements;
    for (uint32_t j = 0; j < k; ++j) {
      elements.push_back(static_cast<ElementId>(
          rng.Uniform(corpus.dictionary().size())));
    }
    queries.emplace_back(Interval(st, end), std::move(elements));
  }
  // Extremes: stabbing query and a full-domain (pure containment) query.
  queries.emplace_back(Interval(domain_end / 2, domain_end / 2),
                       std::vector<ElementId>{0, 1});
  queries.emplace_back(Interval(0, domain_end), std::vector<ElementId>{0});
  return queries;
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::string KindLabel(IndexKind kind) {
  std::string label(IndexKindName(kind));
  for (char& c : label) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return label;
}

class IndexPropertyTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(IndexPropertyTest, MatchesOracleOnRandomCorpus) {
  const Corpus corpus = SmallSynthetic(/*seed=*/1);
  NaiveScan oracle;
  ASSERT_TRUE(oracle.Build(corpus).ok());

  IndexConfig config;
  config.num_slices = 8;
  config.tif_hint_bits_bs = 6;
  config.tif_hint_bits_ms = 4;
  config.irhint_bits = 6;
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(GetParam(), config);
  ASSERT_TRUE(index->Build(corpus).ok());

  std::vector<ObjectId> expected, actual;
  for (const Query& q : RandomQueries(corpus, 300, /*seed=*/2)) {
    oracle.Query(q, &expected);
    index->Query(q, &actual);
    ASSERT_EQ(Sorted(actual), Sorted(expected))
        << index->Name() << " q=[" << q.interval.st << "," << q.interval.end
        << "] |q.d|=" << q.elements.size();
  }
}

TEST_P(IndexPropertyTest, MatchesOracleWithUnknownElements) {
  const Corpus corpus = SmallSynthetic(/*seed=*/3, 500);
  NaiveScan oracle;
  ASSERT_TRUE(oracle.Build(corpus).ok());
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(GetParam());
  ASSERT_TRUE(index->Build(corpus).ok());

  // Element id beyond the dictionary: result must be empty, not a crash.
  Query q(Interval(0, corpus.domain_end()),
          {static_cast<ElementId>(corpus.dictionary().size() + 7), 0});
  std::vector<ObjectId> actual;
  index->Query(q, &actual);
  EXPECT_TRUE(actual.empty()) << index->Name();

  // Empty description: defined to return nothing.
  Query empty(Interval(0, corpus.domain_end()), {});
  index->Query(empty, &actual);
  EXPECT_TRUE(actual.empty()) << index->Name();
}

TEST_P(IndexPropertyTest, InsertThenQueryMatchesOracle) {
  const Corpus corpus = SmallSynthetic(/*seed=*/5, 1500);
  // Build on the first 70%, then insert the rest online.
  const size_t offline = corpus.size() * 7 / 10;
  const Corpus prefix = corpus.Prefix(offline);

  NaiveScan oracle;
  ASSERT_TRUE(oracle.Build(corpus).ok());

  IndexConfig config;
  config.num_slices = 8;
  config.tif_hint_bits_bs = 5;
  config.tif_hint_bits_ms = 4;
  config.irhint_bits = 5;
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(GetParam(), config);
  ASSERT_TRUE(index->Build(prefix).ok());
  for (size_t i = offline; i < corpus.size(); ++i) {
    ASSERT_TRUE(index->Insert(corpus.object(static_cast<ObjectId>(i))).ok())
        << index->Name() << " at " << i;
  }
  // An element id past kElementIdLimit is refused and leaves no trace.
  const Object hostile(static_cast<ObjectId>(corpus.size()),
                       Interval(0, corpus.domain_end()), {0, kElementIdLimit});
  EXPECT_TRUE(index->Insert(hostile).IsInvalidArgument()) << index->Name();

  std::vector<ObjectId> expected, actual;
  for (const Query& q : RandomQueries(corpus, 200, /*seed=*/6)) {
    oracle.Query(q, &expected);
    index->Query(q, &actual);
    ASSERT_EQ(Sorted(actual), Sorted(expected)) << index->Name();
  }
}

TEST_P(IndexPropertyTest, EraseThenQueryMatchesOracle) {
  const Corpus corpus = SmallSynthetic(/*seed=*/7, 1500);
  NaiveScan oracle;
  ASSERT_TRUE(oracle.Build(corpus).ok());
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(GetParam());
  ASSERT_TRUE(index->Build(corpus).ok());

  // Tombstone every fourth object in both index and oracle.
  Rng rng(8);
  for (size_t i = 0; i < corpus.size(); i += 4) {
    const Object& o = corpus.object(static_cast<ObjectId>(i));
    ASSERT_TRUE(index->Erase(o).ok()) << index->Name() << " id " << i;
    ASSERT_TRUE(oracle.Erase(o).ok());
  }
  // Double-delete must report NotFound-style failure, not corrupt state.
  EXPECT_FALSE(index->Erase(corpus.object(0)).ok()) << index->Name();

  std::vector<ObjectId> expected, actual;
  for (const Query& q : RandomQueries(corpus, 200, /*seed=*/9)) {
    oracle.Query(q, &expected);
    index->Query(q, &actual);
    ASSERT_EQ(Sorted(actual), Sorted(expected)) << index->Name();
  }
}

TEST_P(IndexPropertyTest, MixedUpdateStream) {
  const Corpus corpus = SmallSynthetic(/*seed=*/11, 1200);
  const size_t offline = corpus.size() / 2;
  const Corpus prefix = corpus.Prefix(offline);

  std::unique_ptr<TemporalIrIndex> index = CreateIndex(GetParam());
  ASSERT_TRUE(index->Build(prefix).ok());
  NaiveScan oracle;
  ASSERT_TRUE(oracle.Build(prefix).ok());

  // Interleave inserts of the second half with deletes of the first half.
  Rng rng(12);
  size_t next_insert = offline;
  size_t next_erase = 0;
  std::vector<ObjectId> expected, actual;
  while (next_insert < corpus.size() || next_erase < offline) {
    if (next_insert < corpus.size() &&
        (rng.NextBool(0.6) || next_erase >= offline)) {
      const Object& o = corpus.object(static_cast<ObjectId>(next_insert++));
      ASSERT_TRUE(index->Insert(o).ok());
      ASSERT_TRUE(oracle.Insert(o).ok());
    } else {
      const Object& o = corpus.object(static_cast<ObjectId>(next_erase++));
      ASSERT_TRUE(index->Erase(o).ok());
      ASSERT_TRUE(oracle.Erase(o).ok());
    }
    if (rng.NextBool(0.05)) {  // spot-check mid-stream
      const Time st = rng.Uniform(corpus.domain_end());
      const Query q(Interval(st, std::min(corpus.domain_end(),
                                          st + corpus.domain_end() / 8)),
                    {static_cast<ElementId>(rng.Uniform(20)),
                     static_cast<ElementId>(rng.Uniform(20))});
      oracle.Query(q, &expected);
      index->Query(q, &actual);
      ASSERT_EQ(Sorted(actual), Sorted(expected)) << index->Name();
    }
  }
  for (const Query& q : RandomQueries(corpus, 100, /*seed=*/13)) {
    oracle.Query(q, &expected);
    index->Query(q, &actual);
    ASSERT_EQ(Sorted(actual), Sorted(expected)) << index->Name();
  }
}

TEST_P(IndexPropertyTest, NoDuplicateResults) {
  const Corpus corpus = SmallSynthetic(/*seed=*/17);
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(GetParam());
  ASSERT_TRUE(index->Build(corpus).ok());
  std::vector<ObjectId> actual;
  for (const Query& q : RandomQueries(corpus, 300, /*seed=*/18)) {
    index->Query(q, &actual);
    std::vector<ObjectId> sorted = Sorted(actual);
    ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << index->Name() << " returned duplicates";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexPropertyTest,
    ::testing::Values(IndexKind::kTif, IndexKind::kTifSlicing,
                      IndexKind::kTifSharding,
                      IndexKind::kTifHintBinarySearch,
                      IndexKind::kTifHintMergeSort,
                      IndexKind::kTifHintSlicing, IndexKind::kIrHintPerf,
                      IndexKind::kIrHintSize),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      return KindLabel(info.param);
    });

}  // namespace
}  // namespace irhint

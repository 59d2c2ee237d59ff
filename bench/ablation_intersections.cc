// Ablation B: sorted-list intersection kernels — linear merge vs per-item
// binary search vs galloping vs the adaptive kernel the indexes run
// (IntersectCandidates: probe, candidate bitmap or merge) — across
// list-size ratios. Motivates the design choices of Algorithms 3 and 4
// (merge wins for comparable sizes, search-based probing wins when the
// candidate set is tiny) and the bitmap path for dense id spans.
//
// Arguments: {small list size, large list size, dense}. With dense = 0 the
// ids are drawn from [0, 2^22) (a sparse span: the kernel merges or
// probes); with dense = 1 from [0, 2 x large size) (a dense span: the
// kernel uses its bitmap unless it probes).

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "ir/intersect.h"

namespace irhint {
namespace {

std::vector<ObjectId> MakeSorted(size_t n, uint64_t seed, uint64_t universe) {
  Rng rng(seed);
  std::vector<ObjectId> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<ObjectId>(rng.Uniform(universe)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

struct Inputs {
  std::vector<ObjectId> a;  // the small side (candidates)
  std::vector<ObjectId> b;  // the large side (list)
};

Inputs MakeInputs(const benchmark::State& state) {
  const size_t small_n = static_cast<size_t>(state.range(0));
  const size_t large_n = static_cast<size_t>(state.range(1));
  const uint64_t universe = state.range(2) != 0 ? 2 * large_n : 1u << 22;
  return {MakeSorted(small_n, 1, universe), MakeSorted(large_n, 2, universe)};
}

void BM_IntersectMerge(benchmark::State& state) {
  const Inputs in = MakeInputs(state);
  std::vector<ObjectId> out;
  for (auto _ : state) {
    out.clear();
    IntersectMerge(in.a, in.b, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (in.a.size() + in.b.size()));
}

void BM_IntersectBinary(benchmark::State& state) {
  const Inputs in = MakeInputs(state);
  std::vector<ObjectId> out;
  for (auto _ : state) {
    out.clear();
    IntersectBinary(in.a, in.b, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in.a.size());
}

void BM_IntersectGalloping(benchmark::State& state) {
  const Inputs in = MakeInputs(state);
  std::vector<ObjectId> out;
  for (auto _ : state) {
    out.clear();
    IntersectGalloping(in.a, in.b, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * in.a.size());
}

// The large side as a tombstone-free division list of id entries.
void BM_IntersectCandidates(benchmark::State& state) {
  const Inputs in = MakeInputs(state);
  std::vector<IdEntry> list;
  list.reserve(in.b.size());
  for (const ObjectId id : in.b) list.push_back(IdEntry{id});
  const SplitList<IdEntry> split{list, {}};
  const char* const kMethodNames[] = {"probe", "bitmap", "merge"};
  state.SetLabel(kMethodNames[static_cast<int>(
      ChooseIntersectMethod(in.a, list.size(), /*list_tombstone_free=*/true))]);
  std::vector<ObjectId> out;
  for (auto _ : state) {
    out.clear();
    IntersectCandidates(in.a, split, /*list_tombstone_free=*/true, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (in.a.size() + in.b.size()));
}

void Ratios(benchmark::internal::Benchmark* b) {
  for (const int64_t dense : {0, 1}) {
    b->Args({1000, 1000, dense})
        ->Args({1000, 100000, dense})
        ->Args({100, 1000000, dense})
        ->Args({100000, 100000, dense});
  }
}

BENCHMARK(BM_IntersectMerge)->Apply(Ratios);
BENCHMARK(BM_IntersectBinary)->Apply(Ratios);
BENCHMARK(BM_IntersectGalloping)->Apply(Ratios);
BENCHMARK(BM_IntersectCandidates)->Apply(Ratios);

}  // namespace
}  // namespace irhint

// Micro-benchmarks for the bitmap substrate (google-benchmark): Roaring
// add/contains/intersection/iteration across density regimes, against the
// dense BitVector.

#include <benchmark/benchmark.h>

#include <string>

#include "bitmap/bitvector.h"
#include "bitmap/kernels.h"
#include "bitmap/roaring.h"
#include "core/simd_dispatch.h"
#include "util/random.h"

namespace les3 {
namespace bitmap {
namespace {

std::vector<uint32_t> SortedRandom(size_t n, uint32_t universe,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<uint32_t>(rng.Uniform(universe)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void BM_RoaringAdd(benchmark::State& state) {
  uint32_t universe = static_cast<uint32_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    Roaring r;
    for (int i = 0; i < 10000; ++i) {
      r.Add(static_cast<uint32_t>(rng.Uniform(universe)));
    }
    benchmark::DoNotOptimize(r.Cardinality());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_RoaringAdd)->Arg(1 << 14)->Arg(1 << 20)->Arg(1 << 28);

void BM_RoaringContains(benchmark::State& state) {
  uint32_t universe = static_cast<uint32_t>(state.range(0));
  Roaring r = Roaring::FromSorted(SortedRandom(100000, universe, 2));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        r.Contains(static_cast<uint32_t>(rng.Uniform(universe))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoaringContains)->Arg(1 << 17)->Arg(1 << 24);

void BM_RoaringAndCardinality(benchmark::State& state) {
  uint32_t universe = static_cast<uint32_t>(state.range(0));
  Roaring a = Roaring::FromSorted(SortedRandom(50000, universe, 4));
  Roaring b = Roaring::FromSorted(SortedRandom(50000, universe, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.AndCardinality(b));
  }
}
BENCHMARK(BM_RoaringAndCardinality)->Arg(1 << 17)->Arg(1 << 24);

void BM_RoaringForEach(benchmark::State& state) {
  Roaring r = Roaring::FromSorted(
      SortedRandom(100000, static_cast<uint32_t>(state.range(0)), 6));
  for (auto _ : state) {
    uint64_t sum = 0;
    r.ForEach([&](uint32_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * r.Cardinality());
}
BENCHMARK(BM_RoaringForEach)->Arg(1 << 17)->Arg(1 << 24);

void BM_RoaringRunOptimizedForEach(benchmark::State& state) {
  // Dense consecutive values: run containers shine.
  std::vector<uint32_t> values(100000);
  for (uint32_t i = 0; i < values.size(); ++i) values[i] = i + 7;
  Roaring r = Roaring::FromSorted(values);
  r.RunOptimize();
  for (auto _ : state) {
    uint64_t sum = 0;
    r.ForEach([&](uint32_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_RoaringRunOptimizedForEach);

/// Accumulation kernels vs the ForEach baseline, per container regime.
/// Args: (universe, cardinality, run_optimize). Small universes with high
/// cardinality exercise bitsets/runs; large universes exercise arrays.
void AccumulateSetup(benchmark::State& state, Roaring* r) {
  uint32_t universe = static_cast<uint32_t>(state.range(0));
  size_t cardinality = static_cast<size_t>(state.range(1));
  std::vector<uint32_t> values;
  if (cardinality >= universe) {  // contiguous: run containers
    values.resize(universe);
    for (uint32_t i = 0; i < universe; ++i) values[i] = i;
  } else {
    values = SortedRandom(cardinality, universe, 8);
  }
  *r = Roaring::FromSorted(values);
  if (state.range(2) != 0) r->RunOptimize();
}

void BM_RoaringAccumulateInto(benchmark::State& state) {
  Roaring r;
  AccumulateSetup(state, &r);
  std::vector<uint32_t> counts;
  BatchGroupCountAccumulator acc;
  const QueryWeight sub{0, 2};
  for (auto _ : state) {
    acc.Reset(1, static_cast<uint32_t>(state.range(0)), &counts);
    r.AccumulateIntoBatch(acc, &sub, 1);
    acc.Finish();
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * r.Cardinality());
}

void BM_RoaringAccumulateForEach(benchmark::State& state) {
  Roaring r;
  AccumulateSetup(state, &r);
  std::vector<uint32_t> counts;
  for (auto _ : state) {
    counts.assign(static_cast<size_t>(state.range(0)), 0);
    r.ForEach([&](uint32_t v) { counts[v] += 2; });
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * r.Cardinality());
}

#define LES3_ACCUMULATE_ARGS                                              \
  ArgNames({"universe", "card", "runopt"})                                \
      ->Args({1 << 12, 1 << 12, 1})   /* one full run container */        \
      ->Args({1 << 16, 40000, 0})     /* bitset container */              \
      ->Args({1 << 16, 2000, 0})      /* array container */               \
      ->Args({1 << 20, 50000, 0})     /* arrays across many chunks */
BENCHMARK(BM_RoaringAccumulateInto)->LES3_ACCUMULATE_ARGS;
BENCHMARK(BM_RoaringAccumulateForEach)->LES3_ACCUMULATE_ARGS;

void BM_BitVectorAccumulateInto(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  BitVector v(bits);
  Rng rng(9);
  for (size_t i = 0; i < bits / 4; ++i) v.Set(rng.Uniform(bits));
  std::vector<uint32_t> counts;
  for (auto _ : state) {
    counts.assign(bits, 0);
    v.AccumulateInto(counts.data(), 2);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * v.Count());
}
BENCHMARK(BM_BitVectorAccumulateInto)->Arg(1 << 12)->Arg(1 << 16);

void BM_BitVectorAndCount(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  BitVector a(bits), b(bits);
  Rng rng(7);
  for (size_t i = 0; i < bits / 4; ++i) {
    a.Set(rng.Uniform(bits));
    b.Set(rng.Uniform(bits));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.AndCount(b));
  }
}
BENCHMARK(BM_BitVectorAndCount)->Arg(1 << 14)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// Per-dispatch-level rows for the bitset word-scan accumulate kernel: the
// same AccumulateWords entry point pinned to each SIMD tier the machine
// supports, in set bits per second, at the densities the level dispatch
// cares about (the vector paths only engage above their popcount cutoff).

void AccumulateWordsAtLevel(benchmark::State& state, simd::Level level,
                            double density) {
  constexpr size_t kNumWords = 1024;  // one 64Ki-bit bitset container
  Rng rng(static_cast<uint64_t>(density * 977) + 11);
  std::vector<uint64_t> words(kNumWords, 0);
  uint64_t set_bits = 0;
  for (uint64_t& w : words) {
    for (int b = 0; b < 64; ++b) {
      if (rng.Uniform(1000) < static_cast<uint64_t>(density * 1000)) {
        w |= uint64_t{1} << b;
      }
    }
    set_bits += static_cast<uint64_t>(__builtin_popcountll(w));
  }
  std::vector<uint32_t> counts(kNumWords * 64, 0);
  simd::SetLevelForTesting(level);
  for (auto _ : state) {
    AccumulateWords(words.data(), words.size(), /*base=*/0, counts.data(),
                    /*weight=*/2, counts.size());
    benchmark::DoNotOptimize(counts.data());
  }
  simd::ClearLevelForTesting();
  state.SetItemsProcessed(state.iterations() * set_bits);  // bits/sec
}

/// Registered at runtime because the level list depends on the machine:
/// one row per (supported level x bit density), named
/// BM_AccumulateWordsLevel/<level>/density_pct:<d>.
void RegisterLevelBenchmarks() {
  for (simd::Level level : simd::SupportedLevels()) {
    for (int density_pct : {50, 90, 10}) {
      std::string name = std::string("BM_AccumulateWordsLevel/") +
                         simd::LevelName(level) +
                         "/density_pct:" + std::to_string(density_pct);
      benchmark::RegisterBenchmark(
          name.c_str(), [level, density_pct](benchmark::State& state) {
            AccumulateWordsAtLevel(state, level, density_pct / 100.0);
          });
    }
  }
}

}  // namespace
}  // namespace bitmap
}  // namespace les3

int main(int argc, char** argv) {
  les3::bitmap::RegisterLevelBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

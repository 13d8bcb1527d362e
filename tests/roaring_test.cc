// Property tests for the Roaring bitmap against a std::set reference model,
// across container-kind transitions (array <-> bitset <-> run).

#include "bitmap/roaring.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bitmap/kernels.h"
#include "util/random.h"

namespace les3 {
namespace bitmap {
namespace {

std::vector<uint32_t> ToSortedVector(const std::set<uint32_t>& s) {
  return {s.begin(), s.end()};
}

TEST(RoaringTest, EmptyBitmap) {
  Roaring r;
  EXPECT_TRUE(r.Empty());
  EXPECT_EQ(r.Cardinality(), 0u);
  EXPECT_FALSE(r.Contains(0));
  EXPECT_EQ(r.ToVector().size(), 0u);
}

TEST(RoaringTest, AddAndContainsSmall) {
  Roaring r;
  r.Add(5);
  r.Add(100000);
  r.Add(5);  // duplicate
  EXPECT_EQ(r.Cardinality(), 2u);
  EXPECT_TRUE(r.Contains(5));
  EXPECT_TRUE(r.Contains(100000));
  EXPECT_FALSE(r.Contains(6));
}

TEST(RoaringTest, ArrayToBitsetTransition) {
  Roaring r;
  std::set<uint32_t> ref;
  // Push one chunk past the 4096 array threshold.
  for (uint32_t i = 0; i < 5000; ++i) {
    r.Add(i * 3);
    ref.insert(i * 3);
  }
  EXPECT_EQ(r.Cardinality(), ref.size());
  EXPECT_EQ(r.ToVector(), ToSortedVector(ref));
  for (uint32_t probe = 0; probe < 15000; ++probe) {
    EXPECT_EQ(r.Contains(probe), ref.count(probe) > 0) << probe;
  }
}

TEST(RoaringTest, FromSortedMatchesIncremental) {
  Rng rng(3);
  std::set<uint32_t> ref;
  for (int i = 0; i < 20000; ++i) {
    ref.insert(static_cast<uint32_t>(rng.Uniform(1u << 20)));
  }
  Roaring bulk = Roaring::FromSorted(ToSortedVector(ref));
  Roaring inc;
  for (uint32_t v : ref) inc.Add(v);
  EXPECT_EQ(bulk, inc);
  EXPECT_EQ(bulk.Cardinality(), ref.size());
}

TEST(RoaringTest, ForEachAscending) {
  Rng rng(4);
  std::set<uint32_t> ref;
  for (int i = 0; i < 5000; ++i) {
    ref.insert(static_cast<uint32_t>(rng.Uniform(1u << 24)));
  }
  Roaring r = Roaring::FromSorted(ToSortedVector(ref));
  std::vector<uint32_t> got;
  r.ForEach([&](uint32_t v) { got.push_back(v); });
  EXPECT_EQ(got, ToSortedVector(ref));
}

TEST(RoaringTest, RunOptimizePreservesContent) {
  Roaring r;
  std::set<uint32_t> ref;
  // Dense runs compress well.
  for (uint32_t i = 1000; i < 9000; ++i) {
    r.Add(i);
    ref.insert(i);
  }
  uint64_t before = r.MemoryBytes();
  size_t converted = r.RunOptimize();
  EXPECT_GT(converted, 0u);
  EXPECT_LT(r.MemoryBytes(), before);
  EXPECT_EQ(r.ToVector(), ToSortedVector(ref));
  for (uint32_t probe = 0; probe < 12000; ++probe) {
    EXPECT_EQ(r.Contains(probe), ref.count(probe) > 0) << probe;
  }
}

TEST(RoaringTest, AddIntoRunContainerMergesNeighbours) {
  Roaring r;
  for (uint32_t i = 0; i < 6000; ++i) r.Add(i * 2);  // no runs yet
  for (uint32_t i = 10; i < 5000; ++i) r.Add(i);     // create dense region
  r.RunOptimize();
  std::set<uint32_t> ref;
  r.ForEach([&](uint32_t v) { ref.insert(v); });
  // Adds after run conversion must stay correct.
  for (uint32_t v : {9u, 5001u, 10001u, 60000u, 5u}) {
    r.Add(v);
    ref.insert(v);
    EXPECT_TRUE(r.Contains(v));
  }
  EXPECT_EQ(r.ToVector(), ToSortedVector(ref));
}

struct DensityParam {
  uint32_t universe;
  int inserts;
};

class RoaringDensityTest : public ::testing::TestWithParam<DensityParam> {};

TEST_P(RoaringDensityTest, RandomOpsMatchReferenceModel) {
  const auto& p = GetParam();
  Rng rng(42 + p.universe);
  Roaring r;
  std::set<uint32_t> ref;
  for (int i = 0; i < p.inserts; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.Uniform(p.universe));
    r.Add(v);
    ref.insert(v);
    if (i % 997 == 0) {
      EXPECT_EQ(r.Cardinality(), ref.size());
    }
  }
  EXPECT_EQ(r.ToVector(), ToSortedVector(ref));
  // Membership spot checks.
  for (int i = 0; i < 2000; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.Uniform(p.universe));
    EXPECT_EQ(r.Contains(v), ref.count(v) > 0);
  }
  // RunOptimize must be content-preserving at every density.
  r.RunOptimize();
  EXPECT_EQ(r.ToVector(), ToSortedVector(ref));
}

INSTANTIATE_TEST_SUITE_P(
    Densities, RoaringDensityTest,
    ::testing::Values(DensityParam{1u << 10, 3000},   // dense, runs
                      DensityParam{1u << 16, 20000},  // bitset regime
                      DensityParam{1u << 22, 20000},  // array regime
                      DensityParam{1u << 31, 5000}),  // sparse, many chunks
    [](const ::testing::TestParamInfo<DensityParam>& info) {
      return "u" + std::to_string(info.param.universe >> 10) + "k_n" +
             std::to_string(info.param.inserts);
    });

TEST(RoaringTest, AndCardinalityMatchesReference) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::set<uint32_t> ra, rb;
    uint32_t universe = trial % 2 == 0 ? 5000 : (1u << 24);
    for (int i = 0; i < 8000; ++i) {
      ra.insert(static_cast<uint32_t>(rng.Uniform(universe)));
      rb.insert(static_cast<uint32_t>(rng.Uniform(universe)));
    }
    Roaring a = Roaring::FromSorted(ToSortedVector(ra));
    Roaring b = Roaring::FromSorted(ToSortedVector(rb));
    if (trial % 3 == 0) {
      a.RunOptimize();  // exercise run-vs-other intersections
    }
    uint64_t expected = 0;
    for (uint32_t v : ra) expected += rb.count(v);
    EXPECT_EQ(a.AndCardinality(b), expected);
    EXPECT_EQ(b.AndCardinality(a), expected);
    EXPECT_EQ(a.OrCardinality(b), ra.size() + rb.size() - expected);
  }
}

// --------------------------------------------------------------------------
// Container-boundary behavior. Container kinds are not directly
// observable; MemoryBytes pins them down exactly: an array costs
// 2 bytes/value, a bitset a flat 8192, a run 4 bytes/run (+2 bytes/chunk
// key either way).

TEST(RoaringTest, ArrayHoldsExactlyAtThreshold) {
  // 4096 values in one chunk: still an array, 2 bytes each.
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 4096; ++i) values.push_back(i * 3);
  Roaring r = Roaring::FromSorted(values);
  EXPECT_EQ(r.MemoryBytes(), 2u + 4096 * 2u);
  EXPECT_EQ(r.Cardinality(), 4096u);
}

TEST(RoaringTest, AddPromotesToBitsetPastThreshold) {
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 4096; ++i) values.push_back(i * 3);
  Roaring r = Roaring::FromSorted(values);
  r.Add(1);  // 4097th value: array must promote to bitset
  EXPECT_EQ(r.MemoryBytes(), 2u + 1024 * 8u);
  EXPECT_EQ(r.Cardinality(), 4097u);
  EXPECT_TRUE(r.Contains(1));
  EXPECT_TRUE(r.Contains(4095 * 3));
  // Re-adding an existing value at the boundary must NOT promote.
  Roaring s = Roaring::FromSorted(values);
  s.Add(0);
  EXPECT_EQ(s.MemoryBytes(), 2u + 4096 * 2u);
  EXPECT_EQ(s.Cardinality(), 4096u);
}

TEST(RoaringTest, FromSortedPicksBitsetPastThreshold) {
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 4097; ++i) values.push_back(i * 3);
  Roaring r = Roaring::FromSorted(values);
  EXPECT_EQ(r.MemoryBytes(), 2u + 1024 * 8u);
  EXPECT_EQ(r.ToVector(), values);
}

TEST(RoaringTest, RunOptimizeDemotesBitsetAndRoundTrips) {
  // A full interval of 5000 values builds as a bitset; RunOptimize must
  // demote it to a single run and preserve content exactly.
  std::vector<uint32_t> values;
  for (uint32_t i = 1000; i < 6000; ++i) values.push_back(i);
  Roaring r = Roaring::FromSorted(values);
  EXPECT_EQ(r.MemoryBytes(), 2u + 1024 * 8u);
  EXPECT_EQ(r.RunOptimize(), 1u);
  EXPECT_EQ(r.MemoryBytes(), 2u + 4u);  // one run
  EXPECT_EQ(r.ToVector(), values);
  // A second RunOptimize is a no-op on an already-run container.
  EXPECT_EQ(r.RunOptimize(), 0u);
  EXPECT_EQ(r.ToVector(), values);
}

TEST(RoaringTest, RunOptimizeKeepsIncompressibleContainers) {
  // Isolated even values have as many runs as values; run encoding would
  // be 2x the array, so the container must stay an array.
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 100; ++i) values.push_back(i * 2);
  Roaring r = Roaring::FromSorted(values);
  uint64_t before = r.MemoryBytes();
  EXPECT_EQ(r.RunOptimize(), 0u);
  EXPECT_EQ(r.MemoryBytes(), before);
}

// --------------------------------------------------------------------------
// AndCardinality and AccumulateInto across all container-kind pairs.

/// Builds one single-chunk bitmap of the requested kind (verified via
/// MemoryBytes) together with its reference contents.
struct KindFixture {
  Roaring bitmap;
  std::set<uint32_t> ref;
};

KindFixture MakeKind(int kind, uint64_t seed) {
  KindFixture f;
  Rng rng(seed);
  std::vector<uint32_t> values;
  switch (kind) {
    case 0:  // array: sparse random, below threshold
      for (int i = 0; i < 2000; ++i) {
        f.ref.insert(static_cast<uint32_t>(rng.Uniform(1u << 16)));
      }
      f.bitmap = Roaring::FromSorted({f.ref.begin(), f.ref.end()});
      break;
    case 1:  // bitset: dense random, above threshold, incompressible
      for (int i = 0; i < 20000; ++i) {
        f.ref.insert(static_cast<uint32_t>(rng.Uniform(1u << 16)));
      }
      f.bitmap = Roaring::FromSorted({f.ref.begin(), f.ref.end()});
      break;
    default:  // run: a few long intervals, then RunOptimize
      for (int block = 0; block < 4; ++block) {
        uint32_t start = static_cast<uint32_t>(rng.Uniform(50000));
        for (uint32_t i = 0; i < 3000; ++i) f.ref.insert(start + i);
      }
      f.bitmap = Roaring::FromSorted({f.ref.begin(), f.ref.end()});
      f.bitmap.RunOptimize();
      EXPECT_EQ(f.bitmap.MemoryBytes() % 4, 2u);  // 2-byte key + 4-byte runs
      break;
  }
  return f;
}

TEST(RoaringTest, AndCardinalityAcrossAllNineKindPairs) {
  for (int ka = 0; ka < 3; ++ka) {
    for (int kb = 0; kb < 3; ++kb) {
      KindFixture a = MakeKind(ka, 100 + ka);
      KindFixture b = MakeKind(kb, 200 + kb);
      uint64_t expected = 0;
      for (uint32_t v : a.ref) expected += b.ref.count(v);
      EXPECT_EQ(a.bitmap.AndCardinality(b.bitmap), expected)
          << "kinds " << ka << " x " << kb;
      EXPECT_EQ(b.bitmap.AndCardinality(a.bitmap), expected)
          << "kinds " << kb << " x " << ka;
    }
  }
}

TEST(RoaringTest, AccumulateIntoAcrossAllKinds) {
  // Fuse one column of each kind with distinct weights; the accumulator
  // must agree with a scalar reference regardless of which kernels fire.
  std::vector<uint32_t> expected(1u << 16, 0);
  std::vector<KindFixture> fixtures;
  for (int kind = 0; kind < 3; ++kind) {
    fixtures.push_back(MakeKind(kind, 300 + kind));
    for (uint32_t v : fixtures.back().ref) expected[v] += kind + 1;
  }
  std::vector<uint32_t> counts;
  BatchGroupCountAccumulator acc;
  acc.Reset(/*num_queries=*/1, 1u << 16, &counts);
  for (int kind = 0; kind < 3; ++kind) {
    const QueryWeight sub{0, static_cast<uint32_t>(kind + 1)};
    fixtures[kind].bitmap.AccumulateIntoBatch(acc, &sub, 1);
  }
  acc.Finish();
  EXPECT_EQ(counts, expected);
  // The direct-array kernel must agree as well.
  std::vector<uint32_t> direct(1u << 16, 0);
  for (int kind = 0; kind < 3; ++kind) {
    fixtures[kind].bitmap.AccumulateInto(direct.data(), direct.size(),
                                         kind + 1);
  }
  EXPECT_EQ(direct, expected);
}

TEST(RoaringTest, MemoryBytesSparseVsDense) {
  // A sparse bitmap must use far less memory than its universe size.
  Roaring sparse;
  for (uint32_t i = 0; i < 100; ++i) sparse.Add(i * 1000000);
  EXPECT_LT(sparse.MemoryBytes(), 100 * 16u);
}

}  // namespace
}  // namespace bitmap
}  // namespace les3

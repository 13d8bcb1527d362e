// Tests for threshold verification with early termination, text I/O, and
// the one-call index builder.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "core/simd_dispatch.h"
#include "core/text_io.h"
#include "core/verify.h"
#include "core/verify_simd.h"
#include "datagen/generators.h"
#include "search/builder.h"
#include "util/random.h"

namespace les3 {
namespace {

/// Runs `fn` once pinned to each dispatch level this machine supports
/// (always at least scalar), restoring normal dispatch afterwards — the
/// forced-path harness of the SIMD differential tests.
template <typename Fn>
void ForEachDispatchLevel(Fn&& fn) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(std::string("dispatch level ") + simd::LevelName(level));
    simd::SetLevelForTesting(level);
    fn();
  }
  simd::ClearLevelForTesting();
}

TEST(VerifyTest, ExactWhenPassing) {
  SetRecord a = SetRecord::FromTokens({1, 2, 3, 4});
  SetRecord b = SetRecord::FromTokens({2, 3, 4, 5});
  // Jaccard = 3/5 = 0.6.
  for (double delta : {0.1, 0.5, 0.6}) {
    VerifyResult v =
        VerifyThreshold(SimilarityMeasure::kJaccard, a, b, delta);
    EXPECT_TRUE(v.passed) << delta;
    EXPECT_DOUBLE_EQ(v.similarity, 0.6);
  }
}

TEST(VerifyTest, UpperBoundWhenFailing) {
  SetRecord a = SetRecord::FromTokens({1, 2, 3, 4});
  SetRecord b = SetRecord::FromTokens({2, 3, 4, 5});
  VerifyResult v = VerifyThreshold(SimilarityMeasure::kJaccard, a, b, 0.7);
  EXPECT_FALSE(v.passed);
  EXPECT_GE(v.similarity, 0.6);  // bound dominates the true similarity
}

TEST(VerifyTest, AgreesWithFullSimilarityRandomized) {
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    auto make = [&] {
      std::vector<TokenId> t;
      size_t n = 1 + rng.Uniform(12);
      for (size_t i = 0; i < n; ++i) {
        t.push_back(static_cast<TokenId>(rng.Uniform(25)));
      }
      return SetRecord::FromTokens(std::move(t));
    };
    SetRecord a = make(), b = make();
    double threshold = rng.NextDouble();
    for (auto m : {SimilarityMeasure::kJaccard, SimilarityMeasure::kDice,
                   SimilarityMeasure::kCosine}) {
      double exact = Similarity(m, a, b);
      VerifyResult v = VerifyThreshold(m, a, b, threshold);
      EXPECT_EQ(v.passed, exact >= threshold)
          << ToString(m) << " thr " << threshold;
      if (v.passed) {
        EXPECT_NEAR(v.similarity, exact, 1e-12);
      } else {
        EXPECT_GE(v.similarity + 1e-12, exact);
      }
    }
  }
}

TEST(VerifyTest, ZeroThresholdAlwaysPassesExactly) {
  SetRecord a = SetRecord::FromTokens({1});
  SetRecord b = SetRecord::FromTokens({2});
  VerifyResult v = VerifyThreshold(SimilarityMeasure::kJaccard, a, b, 0.0);
  EXPECT_TRUE(v.passed);
  EXPECT_DOUBLE_EQ(v.similarity, 0.0);
}

// ---------------------------------------------------------------------------
// Adversarial kernel cases: both layouts of the verifier (merge and gallop)
// must agree with the full similarity on the inputs that historically break
// intersection kernels.

constexpr SimilarityMeasure kAllMeasures[] = {
    SimilarityMeasure::kJaccard, SimilarityMeasure::kDice,
    SimilarityMeasure::kCosine, SimilarityMeasure::kContainment};

void ExpectKernelsExact(const SetRecord& a, const SetRecord& b,
                        double threshold) {
  for (auto m : kAllMeasures) {
    double exact = Similarity(m, a, b);
    for (int kernel = 0; kernel < 3; ++kernel) {
      VerifyResult v = kernel == 0 ? VerifyMerge(m, a, b, threshold)
                       : kernel == 1 ? VerifyGallop(m, a, b, threshold)
                                     : VerifyThreshold(m, a, b, threshold);
      EXPECT_EQ(v.passed, exact >= threshold)
          << ToString(m) << " kernel " << kernel << " thr " << threshold;
      if (v.passed) {
        // Bit-identical to Similarity(): both go through the one
        // SimilarityFromOverlap expression.
        EXPECT_EQ(v.similarity, exact) << ToString(m) << " kernel " << kernel;
      } else {
        EXPECT_GE(v.similarity + 1e-12, exact)
            << ToString(m) << " kernel " << kernel;
      }
    }
  }
}

TEST(VerifyKernelsTest, DuplicateHeavyMultisets) {
  ForEachDispatchLevel([] {
    // Multiset min-multiplicity semantics: {7x4, 9x2} vs {7x2, 9x5}
    // overlaps in min(4,2) + min(2,5) = 4 tokens.
    SetRecord a = SetRecord::FromTokens({7, 7, 7, 7, 9, 9});
    SetRecord b = SetRecord::FromTokens({7, 7, 9, 9, 9, 9, 9});
    EXPECT_EQ(SetRecord::OverlapSize(a, b), 4u);
    for (double t : {0.0, 0.25, 0.5, 0.75, 1.0}) ExpectKernelsExact(a, b, t);
    // All-one-token multisets of different multiplicities.
    SetRecord c = SetRecord::FromTokens({3, 3, 3, 3, 3, 3, 3, 3});
    SetRecord d = SetRecord::FromTokens({3, 3});
    EXPECT_EQ(SetRecord::OverlapSize(c, d), 2u);
    for (double t : {0.1, 0.5, 0.9}) ExpectKernelsExact(c, d, t);
    // Long duplicate-heavy multisets (past the vector width, so the
    // duplicate-window fallback actually engages at the AVX tiers).
    std::vector<TokenId> e_toks, f_toks;
    for (int i = 0; i < 64; ++i) e_toks.push_back(static_cast<TokenId>(i / 4));
    for (int i = 0; i < 48; ++i) f_toks.push_back(static_cast<TokenId>(i / 3));
    SetRecord e = SetRecord::FromTokens(std::move(e_toks));
    SetRecord f = SetRecord::FromTokens(std::move(f_toks));
    for (double t : {0.0, 0.3, 0.7, 1.0}) ExpectKernelsExact(e, f, t);
  });
}

TEST(VerifyKernelsTest, EmptyAndIdenticalSets) {
  ForEachDispatchLevel([] {
    SetRecord empty;
    SetRecord some = SetRecord::FromTokens({1, 5, 5, 9});
    for (double t : {0.0, 0.5, 1.0}) {
      ExpectKernelsExact(empty, some, t);
      ExpectKernelsExact(some, empty, t);
      ExpectKernelsExact(empty, empty, t);   // defined as similarity 1
      ExpectKernelsExact(some, some, t);     // identical sets: similarity 1
    }
    // A threshold above 1 is unattainable even by identical sets.
    VerifyResult v =
        VerifyThreshold(SimilarityMeasure::kJaccard, some, some, 1.5);
    EXPECT_FALSE(v.passed);
  });
}

TEST(VerifyKernelsTest, NonFiniteThresholdIsRejectedNotCast) {
  // Regression: a NaN threshold used to fall through MinOverlapForPair's
  // closed-form estimate into a double -> size_t cast (undefined
  // behavior; this test runs under the UBSan CI lane). NaN and +inf are
  // unsatisfiable — the canonical max_overlap + 1 — while -inf passes
  // everything, like any threshold <= 0.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  SetRecord a = SetRecord::FromTokens({1, 2, 3, 4});
  SetRecord b = SetRecord::FromTokens({2, 3, 4, 5});
  for (auto m : kAllMeasures) {
    EXPECT_EQ(MinOverlapForPair(m, 4, 4, kNan), 5u) << ToString(m);
    EXPECT_EQ(MinOverlapForPair(m, 4, 4, kInf), 5u) << ToString(m);
    EXPECT_EQ(MinOverlapForPair(m, 4, 4, -kInf), 0u) << ToString(m);
    EXPECT_EQ(MinOverlapForPair(m, 0, 9, kNan), 1u) << ToString(m);
    for (double t : {kNan, kInf}) {
      EXPECT_FALSE(VerifyThreshold(m, a, b, t).passed) << ToString(m);
      EXPECT_FALSE(VerifyMerge(m, a, b, t).passed) << ToString(m);
      EXPECT_FALSE(VerifyGallop(m, a, b, t).passed) << ToString(m);
    }
    EXPECT_TRUE(VerifyThreshold(m, a, b, -kInf).passed) << ToString(m);
  }
}

TEST(SimdKernelsTest, IntersectCountUnalignedOffsetsAndEveryTailLength) {
  // Every operand length 0 .. 2x the widest vector (16 lanes), both sides,
  // with each view offset from its allocation start so the vector loads
  // are genuinely unaligned — differential against the reference multiset
  // intersection, at every dispatch level, with and without an early-exit
  // requirement.
  Rng rng(41);
  constexpr size_t kMaxLen = 32;
  for (size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
    std::vector<std::vector<TokenId>> bufs_a(kMaxLen + 1), bufs_b(kMaxLen + 1);
    auto fill = [&](std::vector<TokenId>* buf, size_t len) {
      std::vector<TokenId> tokens;
      for (size_t i = 0; i < len; ++i) {
        // Universe ~1.5x the length: overlaps and duplicates are common.
        tokens.push_back(static_cast<TokenId>(rng.Uniform(3 + len * 3 / 2)));
      }
      std::sort(tokens.begin(), tokens.end());
      buf->assign(offset, TokenId{0});  // pad to shift alignment
      buf->insert(buf->end(), tokens.begin(), tokens.end());
    };
    for (size_t n = 0; n <= kMaxLen; ++n) {
      fill(&bufs_a[n], n);
      fill(&bufs_b[n], n);
    }
    for (size_t la = 0; la <= kMaxLen; ++la) {
      for (size_t lb = 0; lb <= kMaxLen; ++lb) {
        SetView a(bufs_a[la].data() + offset, la);
        SetView b(bufs_b[lb].data() + offset, lb);
        const size_t exact = SetView::OverlapSize(a, b);
        const size_t min_o = rng.Uniform(std::min(la, lb) + 2);
        ForEachDispatchLevel([&] {
          simd::CountResult free_run = simd::IntersectCount(a, b, 0);
          ASSERT_FALSE(free_run.aborted);
          ASSERT_EQ(free_run.value, exact)
              << "la=" << la << " lb=" << lb << " offset=" << offset;
          simd::CountResult gated = simd::IntersectCount(a, b, min_o);
          if (gated.aborted) {
            // Abort is only legal when the requirement is truly
            // unreachable, and the reported value is an upper bound.
            ASSERT_LT(gated.value, min_o) << "la=" << la << " lb=" << lb;
            ASSERT_GE(gated.value, exact) << "la=" << la << " lb=" << lb;
          } else {
            ASSERT_EQ(gated.value, exact) << "la=" << la << " lb=" << lb;
          }
        });
      }
    }
  }
}

TEST(SimdKernelsTest, LowerBoundMatchesScalarEverywhere) {
  Rng rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng.Uniform(150);
    std::vector<TokenId> sorted;
    for (size_t i = 0; i < n; ++i) {
      sorted.push_back(static_cast<TokenId>(rng.Uniform(1 + n * 2)));
    }
    // Occasionally include extreme token values so the unsigned-compare
    // bias trick is exercised at the top of the uint32 range.
    if (trial % 7 == 0 && n > 0) sorted.back() = 0xFFFFFFFEu;
    std::sort(sorted.begin(), sorted.end());
    SetView v(sorted.data(), sorted.size());
    for (int probe = 0; probe < 20; ++probe) {
      size_t lo = rng.Uniform(n + 1);
      size_t hi = lo + rng.Uniform(n + 1 - lo);
      TokenId t = probe % 5 == 0 ? 0xFFFFFFFFu
                                 : static_cast<TokenId>(rng.Uniform(1 + n * 2));
      const size_t expected = simd::LowerBoundScalar(v, lo, hi, t);
      ForEachDispatchLevel([&] {
        ASSERT_EQ(simd::LowerBound(v, lo, hi, t), expected)
            << "n=" << n << " lo=" << lo << " hi=" << hi << " t=" << t;
      });
    }
  }
}

TEST(VerifyKernelsTest, MinOverlapForPairIsTheExactBoundary) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    size_t na = rng.Uniform(30);
    size_t nb = rng.Uniform(30);
    double t = rng.NextDouble();
    for (auto m : kAllMeasures) {
      size_t min_o = MinOverlapForPair(m, na, nb, t);
      size_t max_o = std::min(na, nb);
      for (size_t o = 0; o <= max_o; ++o) {
        EXPECT_EQ(SimilarityFromOverlap(m, o, na, nb) >= t, o >= min_o)
            << ToString(m) << " na=" << na << " nb=" << nb << " o=" << o
            << " t=" << t;
      }
    }
  }
}

TEST(VerifyKernelsTest, CountCapIsExactAndMonotoneInSetSize) {
  // The verifier's count cap: a member S of a group whose matched count c
  // bounds |Q ∩ S| is cut when MinOverlapForPair(|Q|, |S|, t) > c. Inside
  // the size window that must hold exactly when the best overlap the count
  // allows, min(c, |S|), stays strictly below t — ties at t kept. (Outside
  // it the length filter has already cut S, and MinOverlapForPair returns
  // min(|Q|, |S|) + 1, which can be <= c.)
  Rng rng(29);
  for (int trial = 0; trial < 4000; ++trial) {
    size_t q = rng.Uniform(40);
    size_t s = rng.Uniform(80);
    size_t c = rng.Uniform(q + 1);
    for (auto m : kAllMeasures) {
      // Half the thresholds are attainable similarities, hit exactly.
      double t = rng.Bernoulli(0.5)
                     ? rng.NextDouble()
                     : SimilarityFromOverlap(
                           m, rng.Uniform(std::min(q, s) + 1), q, s);
      size_t need = MinOverlapForPair(m, q, s, t);
      bool can_pass = SimilarityFromOverlap(m, std::min(c, s), q, s) >= t;
      EXPECT_EQ(need <= std::min(c, s), can_pass)
          << ToString(m) << " q=" << q << " s=" << s << " c=" << c
          << " t=" << t;
      if (MaxSimForSize(m, q, s) >= t) {
        EXPECT_EQ(need <= c, can_pass)
            << ToString(m) << " q=" << q << " s=" << s << " c=" << c
            << " t=" << t;
      }
    }
  }
  // The first capped member ends its group's run, which needs the
  // requirement to be non-decreasing in |S| across the size window.
  for (size_t q = 0; q <= 40; ++q) {
    for (auto m : kAllMeasures) {
      std::vector<double> thresholds = {0.0, 1.0};
      for (size_t o = 1; o <= q; ++o) {
        thresholds.push_back(SimilarityFromOverlap(m, o, q, q));
        thresholds.push_back(rng.NextDouble());
      }
      for (double t : thresholds) {
        SizeBounds w = SizeBoundsForThreshold(m, q, t);
        size_t hi = std::min(w.hi, 4 * q + 8);  // containment: unbounded
        for (size_t s = w.lo + 1; s <= hi; ++s) {
          EXPECT_GE(MinOverlapForPair(m, q, s, t),
                    MinOverlapForPair(m, q, s - 1, t))
              << ToString(m) << " q=" << q << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(VerifyKernelsTest, SizeWindowBoundariesAreExact) {
  // |S| exactly at lo and hi must stay inside the window; lo-1 and hi+1
  // must be excluded — under the same doubles the verifier compares with.
  Rng rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    size_t q = rng.Uniform(200);
    double t = 0.05 + 0.95 * rng.NextDouble();
    for (auto m : kAllMeasures) {
      SizeBounds w = SizeBoundsForThreshold(m, q, t);
      if (w.Empty()) {
        EXPECT_GT(t, 1.0) << ToString(m) << " q=" << q;
        continue;
      }
      EXPECT_GE(MaxSimForSize(m, q, w.lo), t) << ToString(m) << " q=" << q;
      if (w.lo > 0) {
        EXPECT_LT(MaxSimForSize(m, q, w.lo - 1), t)
            << ToString(m) << " q=" << q << " t=" << t;
      }
      if (w.hi != static_cast<size_t>(-1)) {
        EXPECT_GE(MaxSimForSize(m, q, w.hi), t) << ToString(m) << " q=" << q;
        EXPECT_LT(MaxSimForSize(m, q, w.hi + 1), t)
            << ToString(m) << " q=" << q << " t=" << t;
      } else {
        // Only containment has no upper size bound for t <= 1.
        EXPECT_EQ(m, SimilarityMeasure::kContainment);
      }
    }
  }
}

TEST(VerifyKernelsTest, RangeKeepsCandidatesExactlyAtTheWindowBoundaries) {
  // Query {0,1,2,3}, Jaccard δ = 0.5: the size window is [2, 8]. Sets at
  // sizes exactly 2 and 8 (both attaining similarity exactly 0.5) must
  // survive the filter; sizes 1 and 9 must be skipped without
  // verification — their best case is strictly below δ.
  SetDatabase db(16);
  SetId s1 = db.AddSet(SetRecord::FromTokens({0}));                // size 1
  SetId s2 = db.AddSet(SetRecord::FromTokens({0, 1}));             // size 2
  SetId s8 = db.AddSet(
      SetRecord::FromTokens({0, 1, 2, 3, 4, 5, 6, 7}));            // size 8
  SetId s9 = db.AddSet(
      SetRecord::FromTokens({0, 1, 2, 3, 4, 5, 6, 7, 8}));         // size 9
  std::vector<GroupId> assignment(db.size(), 0);
  search::Les3Index index(db, assignment, 1);
  SetRecord query = SetRecord::FromTokens({0, 1, 2, 3});
  search::QueryStats stats;
  auto hits = index.Range(query, 0.5, &stats);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].first, s2);
  EXPECT_DOUBLE_EQ(hits[0].second, 0.5);
  EXPECT_EQ(hits[1].first, s8);
  EXPECT_DOUBLE_EQ(hits[1].second, 0.5);
  // s1 and s9 never reached a kernel.
  EXPECT_EQ(stats.candidates_size_skipped, 2u);
  EXPECT_EQ(stats.candidates_verified, 2u);
  (void)s1;
  (void)s9;
}

void RunRandomizedDifferential(uint64_t seed) {
  // The kernels against the one reference multiset intersection
  // (SetRecord::OverlapSize): random pairs across size skews and duplicate
  // densities, random thresholds, all measures, all kernels — including
  // the precomputed-min-overlap entry points the batch pipeline uses.
  Rng rng(seed);
  for (int trial = 0; trial < 2000; ++trial) {
    auto make = [&](size_t max_size, uint64_t universe) {
      std::vector<TokenId> tokens;
      size_t n = rng.Uniform(max_size + 1);
      for (size_t i = 0; i < n; ++i) {
        tokens.push_back(static_cast<TokenId>(rng.Uniform(universe)));
      }
      return SetRecord::FromTokens(std::move(tokens));
    };
    // Mix size regimes: comparable, skewed (gallop territory), and tiny
    // universes (duplicate-heavy multisets).
    SetRecord a = make(trial % 3 == 0 ? 6 : 40, trial % 2 == 0 ? 8 : 64);
    SetRecord b = make(trial % 3 == 1 ? 200 : 24, trial % 2 == 0 ? 8 : 64);
    double t = rng.NextDouble();
    for (auto m : kAllMeasures) {
      size_t overlap = SetRecord::OverlapSize(a, b);
      double exact = SimilarityFromOverlap(m, overlap, a.size(), b.size());
      size_t min_o = MinOverlapForPair(m, a.size(), b.size(), t);
      for (int kernel = 0; kernel < 4; ++kernel) {
        VerifyResult v = kernel == 0 ? VerifyMerge(m, a, b, t)
                         : kernel == 1 ? VerifyGallop(m, a, b, t)
                         : kernel == 2 ? VerifyThreshold(m, a, b, t)
                                       : VerifyThreshold(m, a, b, t, min_o);
        ASSERT_EQ(v.passed, exact >= t)
            << ToString(m) << " kernel " << kernel << " |a|=" << a.size()
            << " |b|=" << b.size() << " t=" << t;
        if (v.passed) {
          ASSERT_EQ(v.similarity, exact)
              << ToString(m) << " kernel " << kernel;
        } else {
          ASSERT_GE(v.similarity + 1e-12, exact)
              << ToString(m) << " kernel " << kernel;
        }
      }
    }
  }
}

TEST(VerifyKernelsTest, RandomizedDifferentialAgainstOverlapSize) {
  // The full 2000-trial differential once per dispatch level, each with
  // its own seed, so the AVX tiers see their own random corpus rather
  // than replaying the scalar one.
  uint64_t seed = 29;
  ForEachDispatchLevel([&] { RunRandomizedDifferential(seed++); });
}

TEST(TextIoTest, ParseSetLine) {
  auto r = ParseSetLine("5 1  12\t3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().tokens(), (std::vector<TokenId>{1, 3, 5, 12}));
  EXPECT_TRUE(ParseSetLine("").ok());
  EXPECT_TRUE(ParseSetLine("   ").ok());
  EXPECT_FALSE(ParseSetLine("1 x 2").ok());
  EXPECT_FALSE(ParseSetLine("99999999999999999999").ok());
}

TEST(TextIoTest, SaveLoadRoundTrip) {
  SetDatabase db(100);
  db.AddSet(SetRecord::FromTokens({3, 1, 4}));
  db.AddSet(SetRecord::FromTokens({}));
  db.AddSet(SetRecord::FromTokens({42}));
  std::string path = ::testing::TempDir() + "/les3_text_io.txt";
  ASSERT_TRUE(SaveSetsToText(db, path).ok());
  auto loaded = LoadSetsFromText(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 3u);
  for (SetId i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded.value().set(i), db.set(i)) << i;
  }
  std::remove(path.c_str());
}

TEST(TextIoTest, LoadReportsLineNumberOnError) {
  std::string path = ::testing::TempDir() + "/les3_bad.txt";
  {
    std::ofstream out(path);
    out << "1 2\nbad line\n";
  }
  auto r = LoadSetsFromText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BuilderTest, EmptyDatabaseRejected) {
  auto r = search::BuildLes3Index(SetDatabase(5));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuilderTest, BuildsWorkingIndexWithDefaults) {
  datagen::ZipfOptions gen;
  gen.num_sets = 2000;
  gen.num_tokens = 800;
  gen.cluster_fraction = 0.7;
  gen.sets_per_cluster = 40;
  gen.seed = 7;
  SetDatabase db = datagen::GenerateZipf(gen);
  SetDatabase copy = db;
  search::Les3BuildOptions options;
  options.cascade.pairs_per_model = 2000;  // keep the test fast
  auto index = search::BuildLes3Index(std::move(copy), options);
  ASSERT_TRUE(index.ok());
  auto hits = index.value().Knn(db.set(11), 5);
  ASSERT_EQ(hits.size(), 5u);
  EXPECT_DOUBLE_EQ(hits[0].second, 1.0);  // the query is in the database
  EXPECT_GT(index.value().tgm().num_groups(), 1u);
}

TEST(BuilderTest, RespectsExplicitGroupCount) {
  datagen::UniformOptions gen;
  gen.num_sets = 500;
  gen.num_tokens = 200;
  SetDatabase db = datagen::GenerateUniform(gen);
  search::Les3BuildOptions options;
  options.num_groups = 10;
  options.cascade.pairs_per_model = 1000;
  auto index = search::BuildLes3Index(std::move(db), options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().tgm().num_groups(), 10u);
}

}  // namespace
}  // namespace les3

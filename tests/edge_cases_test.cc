// Cross-module edge cases: container boundaries, degenerate queries,
// insert stress, and option extremes.

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "baselines/invidx.h"
#include "bitmap/roaring.h"
#include "datagen/generators.h"
#include "embed/mds.h"
#include "embed/pca.h"
#include "graph/partition_fm.h"
#include "search/les3_index.h"
#include "storage/disk_search.h"
#include "util/random.h"

namespace les3 {
namespace {

TEST(RoaringEdgeTest, ChunkBoundaryValues) {
  bitmap::Roaring r;
  std::vector<uint32_t> values{0,          65535,      65536,
                               131071,     131072,     4294967295u,
                               4294901760u};
  for (uint32_t v : values) r.Add(v);
  for (uint32_t v : values) EXPECT_TRUE(r.Contains(v)) << v;
  EXPECT_FALSE(r.Contains(1));
  EXPECT_FALSE(r.Contains(65534));
  EXPECT_EQ(r.Cardinality(), values.size());
}

TEST(RoaringEdgeTest, FullChunkBecomesSingleRun) {
  std::vector<uint32_t> all(65536);
  for (uint32_t i = 0; i < 65536; ++i) all[i] = i;
  bitmap::Roaring r = bitmap::Roaring::FromSorted(all);
  EXPECT_EQ(r.Cardinality(), 65536u);
  size_t converted = r.RunOptimize();
  EXPECT_EQ(converted, 1u);
  // One run = 4 bytes vs 8 KiB bitset.
  EXPECT_LE(r.MemoryBytes(), 16u);
  EXPECT_TRUE(r.Contains(0));
  EXPECT_TRUE(r.Contains(65535));
  EXPECT_EQ(r.AndCardinality(r), 65536u);
}

TEST(FmPartitionEdgeTest, MorePartsThanVertices) {
  graph::Graph g = graph::Graph::FromEdges(3, {{0, 1}});
  auto part = graph::PartitionGraph(g, 3);
  std::set<uint32_t> used(part.begin(), part.end());
  EXPECT_EQ(used.size(), 3u);  // every vertex its own part
}

TEST(PcaEdgeTest, DimClampedToUniverse) {
  SetDatabase db(3);
  db.AddSet(SetRecord::FromTokens({0, 1}));
  db.AddSet(SetRecord::FromTokens({1, 2}));
  embed::PcaOptions opts;
  opts.dim = 16;  // larger than |T| = 3
  embed::PcaRepresentation pca(db, opts);
  EXPECT_LE(pca.dim(), 3u);
}

TEST(MdsEdgeTest, DimClampedToLandmarks) {
  datagen::UniformOptions gen;
  gen.num_sets = 20;
  gen.num_tokens = 50;
  SetDatabase db = datagen::GenerateUniform(gen);
  embed::MdsOptions opts;
  opts.dim = 64;
  opts.num_landmarks = 8;
  embed::MdsRepresentation mds(db, opts);
  EXPECT_LT(mds.dim(), 8u);
}

TEST(InvIdxEdgeTest, QueryOfOnlyUnknownTokens) {
  SetDatabase db(10);
  db.AddSet(SetRecord::FromTokens({1, 2}));
  db.AddSet(SetRecord::FromTokens({3}));
  baselines::InvIdx index(&db);
  SetRecord query = SetRecord::FromTokens({500, 501});
  auto range = index.Range(query, 0.5);
  EXPECT_TRUE(range.empty());
  auto knn = index.Knn(query, 1);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_DOUBLE_EQ(knn[0].second, 0.0);
}

TEST(InvIdxEdgeTest, ThresholdAboveOneReturnsNothing) {
  SetDatabase db(10);
  db.AddSet(SetRecord::FromTokens({1, 2}));
  baselines::InvIdx index(&db);
  auto hits = index.Range(SetRecord::FromTokens({1, 2}), 1.5);
  EXPECT_TRUE(hits.empty());
}

TEST(SearchEdgeTest, SingleGroupIndexDegeneratesToScan) {
  datagen::UniformOptions gen;
  gen.num_sets = 200;
  gen.num_tokens = 60;
  SetDatabase db = datagen::GenerateUniform(gen);
  std::vector<GroupId> assignment(db.size(), 0);
  search::Les3Index index(db, assignment, 1);
  baselines::BruteForce brute(&db);
  search::QueryStats stats;
  auto got = index.Knn(db.set(0), 5, &stats);
  auto expected = brute.Knn(db.set(0), 5);
  // One group means no group can be pruned: every member is either
  // verified or cut unopened by the length filter or the group-count cap.
  EXPECT_EQ(stats.groups_pruned, 0u);
  EXPECT_EQ(stats.candidates_verified + stats.candidates_size_skipped,
            db.size());
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, expected[i].first) << i;
    EXPECT_EQ(got[i].second, expected[i].second) << i;  // bit-identical
  }
}

TEST(SearchEdgeTest, ManyInsertsRemainExact) {
  datagen::ZipfOptions gen;
  gen.num_sets = 300;
  gen.num_tokens = 100;
  gen.seed = 3;
  SetDatabase db = datagen::GenerateZipf(gen);
  Rng rng(5);
  std::vector<GroupId> assignment(db.size());
  for (auto& g : assignment) g = static_cast<GroupId>(rng.Uniform(8));
  search::Les3Index index(db, assignment, 8);
  // Insert 300 more sets, a third with new tokens.
  for (int i = 0; i < 300; ++i) {
    std::vector<TokenId> tokens;
    size_t size = 1 + rng.Uniform(8);
    for (size_t t = 0; t < size; ++t) {
      TokenId tok = static_cast<TokenId>(rng.Uniform(100));
      if (i % 3 == 0) tok += 1000;
      tokens.push_back(tok);
    }
    index.Insert(SetRecord::FromTokens(std::move(tokens)));
  }
  baselines::BruteForce brute(&index.db());
  for (int q = 0; q < 20; ++q) {
    SetView query = index.db().set(static_cast<SetId>(rng.Uniform(index.db().size())));
    auto got = index.Knn(query, 7);
    auto expected = brute.Knn(query, 7);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].second, expected[i].second, 1e-12);
    }
  }
}

TEST(DiskEdgeTest, Les3SeeksBoundedByGroupsVisited) {
  datagen::ZipfOptions gen;
  gen.num_sets = 400;
  gen.num_tokens = 120;
  gen.seed = 7;
  SetDatabase db = datagen::GenerateZipf(gen);
  Rng rng(9);
  std::vector<GroupId> assignment(db.size());
  for (auto& g : assignment) g = static_cast<GroupId>(rng.Uniform(10));
  storage::DiskLes3 disk(&db, assignment, 10, SimilarityMeasure::kJaccard);
  auto r = disk.Knn(db.set(0), 5);
  EXPECT_LE(r.seeks, r.stats.groups_visited);
  EXPECT_GE(r.stats.groups_visited, 1u);
}

TEST(SimilarityEdgeTest, SingleTokenSets) {
  SetRecord a = SetRecord::FromTokens({5});
  SetRecord b = SetRecord::FromTokens({5});
  SetRecord c = SetRecord::FromTokens({6});
  for (auto m : {SimilarityMeasure::kJaccard, SimilarityMeasure::kDice,
                 SimilarityMeasure::kCosine}) {
    EXPECT_DOUBLE_EQ(Similarity(m, a, b), 1.0);
    EXPECT_DOUBLE_EQ(Similarity(m, a, c), 0.0);
  }
}

TEST(DatagenEdgeTest, ClusterFractionZeroMatchesLegacyBehavior) {
  datagen::ZipfOptions a, b;
  a.num_sets = b.num_sets = 100;
  a.num_tokens = b.num_tokens = 50;
  a.seed = b.seed = 11;
  a.cluster_fraction = 0.0;
  b.cluster_fraction = 0.0;
  SetDatabase da = GenerateZipf(a);
  SetDatabase dbb = GenerateZipf(b);
  for (SetId i = 0; i < da.size(); ++i) EXPECT_EQ(da.set(i), dbb.set(i));
}

TEST(DatagenEdgeTest, ClusteredDataHasHigherIntraClusterSimilarity) {
  datagen::ZipfOptions opts;
  opts.num_sets = 1000;
  opts.num_tokens = 5000;
  opts.avg_set_size = 8;
  opts.cluster_fraction = 0.8;
  opts.sets_per_cluster = 50;
  opts.seed = 13;
  SetDatabase db = GenerateZipf(opts);
  Rng rng(15);
  double intra = 0, cross = 0;
  for (int i = 0; i < 2000; ++i) {
    SetId a = static_cast<SetId>(rng.Uniform(1000));
    SetId same = (a / 50) * 50 + static_cast<SetId>(rng.Uniform(50));
    SetId other = static_cast<SetId>(rng.Uniform(1000));
    intra += Similarity(SimilarityMeasure::kJaccard, db.set(a), db.set(same));
    cross +=
        Similarity(SimilarityMeasure::kJaccard, db.set(a), db.set(other));
  }
  EXPECT_GT(intra, cross * 2);
}

}  // namespace
}  // namespace les3

// Exactness tests for the LES3 search engine: results must equal brute
// force on randomized databases across measures, query types, partitionings
// and parameters — the paper's central "exact" claim.

#include "search/les3_index.h"

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "datagen/generators.h"
#include "storage/disk_search.h"
#include "util/random.h"

namespace les3 {
namespace search {
namespace {

SetDatabase MakeDb(uint64_t seed, uint32_t num_sets = 600,
                   uint32_t num_tokens = 150) {
  datagen::ZipfOptions opts;
  opts.num_sets = num_sets;
  opts.num_tokens = num_tokens;
  opts.avg_set_size = 8;
  opts.zipf_exponent = 0.8;
  opts.seed = seed;
  return datagen::GenerateZipf(opts);
}

std::vector<GroupId> RandomAssignment(size_t n, uint32_t groups,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<GroupId> a(n);
  for (auto& g : a) g = static_cast<GroupId>(rng.Uniform(groups));
  return a;
}

/// kNN answers may legitimately differ on ties; compare the similarity
/// multiset instead of ids.
void ExpectSameSimilarities(const std::vector<Hit>& a,
                            const std::vector<Hit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].second, b[i].second, 1e-12) << "rank " << i;
  }
}

class SearchExactnessTest
    : public ::testing::TestWithParam<SimilarityMeasure> {};

TEST_P(SearchExactnessTest, KnnMatchesBruteForce) {
  SetDatabase db = MakeDb(1);
  SetDatabase db_copy = db;
  auto assignment = RandomAssignment(db.size(), 12, 2);
  Les3Index index(std::move(db_copy), assignment, 12, GetParam());
  baselines::BruteForce brute(&db, GetParam());
  Rng rng(3);
  for (size_t k : {1u, 5u, 20u}) {
    for (int q = 0; q < 20; ++q) {
      SetView query = db.set(static_cast<SetId>(rng.Uniform(600)));
      QueryStats stats;
      auto got = index.Knn(query, k, &stats);
      auto expected = brute.Knn(query, k);
      ExpectSameSimilarities(got, expected);
      EXPECT_LE(stats.candidates_verified, db.size());
      EXPECT_GE(stats.pruning_efficiency, 0.0);
      EXPECT_LE(stats.pruning_efficiency, 1.0);
    }
  }
}

TEST_P(SearchExactnessTest, RangeMatchesBruteForce) {
  SetDatabase db = MakeDb(5);
  SetDatabase db_copy = db;
  auto assignment = RandomAssignment(db.size(), 10, 6);
  Les3Index index(std::move(db_copy), assignment, 10, GetParam());
  baselines::BruteForce brute(&db, GetParam());
  Rng rng(7);
  for (double delta : {0.3, 0.5, 0.7, 0.9}) {
    for (int q = 0; q < 20; ++q) {
      SetView query = db.set(static_cast<SetId>(rng.Uniform(600)));
      auto got = index.Range(query, delta);
      auto expected = brute.Range(query, delta);
      ASSERT_EQ(got.size(), expected.size()) << "delta " << delta;
      // Range results are id-exact (no tie ambiguity in membership).
      std::set<SetId> got_ids, expected_ids;
      for (auto& h : got) got_ids.insert(h.first);
      for (auto& h : expected) expected_ids.insert(h.first);
      EXPECT_EQ(got_ids, expected_ids);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, SearchExactnessTest,
                         ::testing::Values(SimilarityMeasure::kJaccard,
                                           SimilarityMeasure::kDice,
                                           SimilarityMeasure::kCosine),
                         [](const auto& info) { return ToString(info.param); });

TEST(SearchTest, QueryWithUnseenTokens) {
  SetDatabase db = MakeDb(9);
  SetDatabase db_copy = db;
  auto assignment = RandomAssignment(db.size(), 8, 10);
  Les3Index index(std::move(db_copy), assignment, 8);
  baselines::BruteForce brute(&db);
  // Tokens 500+ never occur in the 150-token universe.
  SetRecord query = SetRecord::FromTokens({500, 501, 0, 1, 2});
  auto got = index.Knn(query, 5);
  auto expected = brute.Knn(query, 5);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].second, expected[i].second, 1e-12);
  }
}

TEST(SearchTest, EmptyQueryReturnsSomething) {
  SetDatabase db = MakeDb(11);
  auto assignment = RandomAssignment(db.size(), 8, 12);
  Les3Index index(std::move(db), assignment, 8);
  auto hits = index.Knn(SetRecord(), 3);
  EXPECT_EQ(hits.size(), 3u);  // all sims 0, but k results exist
}

TEST(SearchTest, KLargerThanDatabase) {
  SetDatabase db(20);
  for (int i = 0; i < 5; ++i) {
    db.AddSet(SetRecord::FromTokens({static_cast<TokenId>(i)}));
  }
  std::vector<GroupId> assignment{0, 0, 1, 1, 1};
  Les3Index index(std::move(db), assignment, 2);
  auto hits = index.Knn(SetRecord::FromTokens({0}), 50);
  EXPECT_EQ(hits.size(), 5u);
}

TEST(SearchTest, RangeDeltaOneFindsExactDuplicates) {
  SetDatabase db(10);
  db.AddSet(SetRecord::FromTokens({1, 2}));
  db.AddSet(SetRecord::FromTokens({1, 2}));
  db.AddSet(SetRecord::FromTokens({1, 3}));
  std::vector<GroupId> assignment{0, 1, 1};
  Les3Index index(std::move(db), assignment, 2);
  auto hits = index.Range(SetRecord::FromTokens({1, 2}), 1.0);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_DOUBLE_EQ(hits[0].second, 1.0);
}

TEST(SearchTest, BetterPartitioningPrunesMore) {
  // Cluster-aligned groups should verify fewer candidates than random
  // groups for the same queries.
  Rng rng(13);
  SetDatabase db(160);
  std::vector<GroupId> aligned;
  for (uint32_t c = 0; c < 8; ++c) {
    for (int i = 0; i < 50; ++i) {
      std::vector<TokenId> tokens;
      for (int j = 0; j < 8; ++j) {
        tokens.push_back(static_cast<TokenId>(20 * c + rng.Uniform(20)));
      }
      db.AddSet(SetRecord::FromTokens(std::move(tokens)));
      aligned.push_back(c);
    }
  }
  SetDatabase db2 = db;
  auto random = RandomAssignment(db.size(), 8, 15);
  Les3Index good(std::move(db), aligned, 8);
  Les3Index bad(std::move(db2), random, 8);
  uint64_t good_cands = 0, bad_cands = 0;
  for (int q = 0; q < 40; ++q) {
    SetView query = good.db().set(static_cast<SetId>(q * 7 % 400));
    QueryStats sg, sb;
    good.Knn(query, 10, &sg);
    bad.Knn(query, 10, &sb);
    good_cands += sg.candidates_verified;
    bad_cands += sb.candidates_verified;
  }
  EXPECT_LT(good_cands, bad_cands);
}

TEST(SearchTest, InsertedSetsAreFindable) {
  SetDatabase db = MakeDb(17, 200);
  auto assignment = RandomAssignment(db.size(), 6, 18);
  Les3Index index(std::move(db), assignment, 6);
  SetRecord novel = SetRecord::FromTokens({3, 4, 5, 6, 7});
  SetId id = index.Insert(novel);
  auto hits = index.Range(novel, 1.0);
  bool found = false;
  for (auto& h : hits) found = found || h.first == id;
  EXPECT_TRUE(found);
  // And kNN with k=1 should return it (similarity 1).
  auto top = index.Knn(novel, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].second, 1.0);
}

TEST(SearchTest, InsertWithNewTokensSearchable) {
  SetDatabase db = MakeDb(19, 200);
  auto assignment = RandomAssignment(db.size(), 6, 20);
  Les3Index index(std::move(db), assignment, 6);
  SetRecord novel = SetRecord::FromTokens({9000, 9001, 9002});
  SetId id = index.Insert(novel);
  auto hits = index.Knn(novel, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, id);
  EXPECT_DOUBLE_EQ(hits[0].second, 1.0);
}

/// Adds `count` sets of `size` tokens each: all of `shared_tokens`, padded
/// with fresh tokens that no other set or query holds.
void AddSetsSharing(const std::vector<TokenId>& shared_tokens, size_t count,
                    size_t size, TokenId* next_fresh, SetDatabase* db) {
  for (size_t i = 0; i < count; ++i) {
    std::vector<TokenId> tokens = shared_tokens;
    while (tokens.size() < size) tokens.push_back((*next_fresh)++);
    db->AddSet(SetRecord::FromTokens(std::move(tokens)));
  }
}

TEST(SearchTest, CountCapSkipsRangeGroupUnopened) {
  // |Q| = 10, Jaccard δ = 0.5: the TGM min-count is 5, and one group whose
  // members all share the same 5 query tokens reaches it exactly (c_g = 5).
  // Size 10 sits inside the size window [5, 20], but a size-10 member needs
  // overlap 7 (7/13 >= 0.5 > 6/14), more than c_g: the count cap must skip
  // the whole group before it is opened, in memory and on disk.
  SetDatabase db(1000);
  TokenId fresh = 100;
  AddSetsSharing({0, 1, 2, 3, 4}, 4, 10, &fresh, &db);
  SetRecord query = SetRecord::FromTokens({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  std::vector<GroupId> assignment(db.size(), 0);
  baselines::BruteForce brute(&db);
  ASSERT_TRUE(brute.Range(query, 0.5).empty());

  Les3Index index(db, assignment, 1);
  QueryStats stats;
  size_t fired = 0;
  auto hits = index.Range(query, 0.5, &stats,
                          [&](GroupId, size_t) { ++fired; });
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.candidates_verified, 0u);
  EXPECT_EQ(stats.candidates_size_skipped, db.size());
  EXPECT_EQ(stats.groups_visited, 0u);
  EXPECT_EQ(fired, 0u);

  storage::DiskLes3 disk(&db, assignment, 1, SimilarityMeasure::kJaccard);
  storage::DiskQueryResult r = disk.Range(query, 0.5);
  EXPECT_TRUE(r.hits.empty());
  EXPECT_EQ(r.stats.candidates_verified, 0u);
  EXPECT_EQ(r.stats.candidates_size_skipped, db.size());
  EXPECT_EQ(r.stats.groups_visited, 0u);
  EXPECT_EQ(r.seeks, 0u);  // no extent read
  EXPECT_EQ(r.pages, 0u);
}

TEST(SearchTest, CountCapSkipsKnnGroupUnopened) {
  // kNN k = 1 over |Q| = 10. Group 0 (c = 10, bound 1) holds {0..7}
  // (Jaccard 0.8) and a small set covering tokens 8 and 9; once it is
  // visited the running k-th best is 0.8. Group 1 shares tokens 0..7 over
  // two size-10 members, 4 each: c = 8, bound 0.8 — not below the k-th
  // best, so the heap pops it, and size 10 is inside the 0.8 window
  // [8, 12]. A size-10 member needs overlap 9 for 0.8, more than c: the
  // count cap must skip group 1 unopened.
  SetDatabase db(1000);
  TokenId fresh = 100;
  SetId best_id = db.AddSet(SetRecord::FromTokens({0, 1, 2, 3, 4, 5, 6, 7}));
  AddSetsSharing({8, 9}, 1, 3, &fresh, &db);
  AddSetsSharing({0, 1, 2, 3}, 1, 10, &fresh, &db);
  AddSetsSharing({4, 5, 6, 7}, 1, 10, &fresh, &db);
  std::vector<GroupId> assignment = {0, 0, 1, 1};
  SetRecord query = SetRecord::FromTokens({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  baselines::BruteForce brute(&db);
  auto expected = brute.Knn(query, 1);
  ASSERT_EQ(expected.size(), 1u);
  ASSERT_EQ(expected[0].first, best_id);

  Les3Index index(db, assignment, 2);
  QueryStats stats;
  std::vector<GroupId> fired;
  auto hits = index.Knn(query, 1, &stats,
                        [&](GroupId g, size_t) { fired.push_back(g); });
  EXPECT_EQ(hits, expected);
  EXPECT_EQ(stats.candidates_verified, 2u);      // group 0's members
  EXPECT_EQ(stats.candidates_size_skipped, 2u);  // group 1's members
  EXPECT_EQ(stats.groups_visited, 1u);
  EXPECT_EQ(stats.groups_pruned, 1u);
  EXPECT_EQ(fired, std::vector<GroupId>{0});

  storage::DiskLes3 disk(&db, assignment, 2, SimilarityMeasure::kJaccard);
  storage::DiskQueryResult r = disk.Knn(query, 1);
  EXPECT_EQ(r.hits, expected);
  EXPECT_EQ(r.stats.candidates_size_skipped, 2u);
  EXPECT_EQ(r.stats.groups_visited, 1u);
  EXPECT_EQ(r.seeks, 1u);  // group 0's extent only
}

TEST(SearchTest, StatsAccounting) {
  SetDatabase db = MakeDb(21);
  auto assignment = RandomAssignment(db.size(), 10, 22);
  Les3Index index(std::move(db), assignment, 10);
  QueryStats stats;
  index.Range(index.db().set(0), 0.8, &stats);
  EXPECT_EQ(stats.groups_visited + stats.groups_pruned, 10u);
  EXPECT_GT(stats.columns_scanned, 0u);
  EXPECT_GE(stats.micros, 0.0);
}

}  // namespace
}  // namespace search
}  // namespace les3

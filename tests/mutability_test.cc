// Unit tests for full index mutability (docs/mutability.md): tombstones
// at every layer — SetDatabase holes, bitmap-column Remove across
// container shapes, TGM member removal / re-routing / splitting /
// column recompute — plus the self-healing maintenance policy and the
// engine-level Delete/Update/StableDb contract. The end-to-end
// interleaving differential lives in property_test.cc; these tests pin
// each layer's behavior in isolation so a regression names its layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/engine_builder.h"
#include "api/engine_options.h"
#include "api/search_engine.h"
#include "bitmap/bitmap_column.h"
#include "bitmap/roaring.h"
#include "core/database.h"
#include "core/set_record.h"
#include "core/similarity.h"
#include "core/types.h"
#include "datagen/generators.h"
#include "search/les3_index.h"
#include "search/maintenance.h"
#include "search/query_stats.h"
#include "tgm/tgm.h"

namespace les3 {
namespace {

SetRecord Rec(std::vector<TokenId> tokens) {
  return SetRecord::FromTokens(std::move(tokens));
}

// ---------------------------------------------------------------------------
// SetDatabase: holes, span repointing, arena garbage.
// ---------------------------------------------------------------------------

TEST(MutabilityDatabaseTest, DeleteTombstonesAndNeverReusesIds) {
  SetDatabase db(10);
  SetId a = db.AddSet(Rec({1, 2, 3}).view());
  SetId b = db.AddSet(Rec({4, 5}).view());
  ASSERT_EQ(db.size(), 2u);
  ASSERT_EQ(db.num_live(), 2u);

  EXPECT_TRUE(db.DeleteSet(a));
  EXPECT_EQ(db.size(), 2u);  // id space keeps the hole
  EXPECT_EQ(db.num_live(), 1u);
  EXPECT_EQ(db.num_deleted(), 1u);
  EXPECT_TRUE(db.is_deleted(a));
  EXPECT_EQ(db.set_size(a), 0u);
  EXPECT_EQ(db.set(a).size(), 0u);
  EXPECT_EQ(db.GarbageTokens(), 3u);

  // Idempotent / out-of-range.
  EXPECT_FALSE(db.DeleteSet(a));
  EXPECT_FALSE(db.DeleteSet(999));

  // New inserts take fresh ids, never the hole.
  SetId c = db.AddSet(Rec({7}).view());
  EXPECT_EQ(c, 2u);
  EXPECT_TRUE(db.is_deleted(a));
  EXPECT_EQ(db.set_size(b), 2u);
}

TEST(MutabilityDatabaseTest, ReplaceRepointsSpanAndLeavesGarbage) {
  SetDatabase db(10);
  SetId a = db.AddSet(Rec({1, 2, 3}).view());
  SetId b = db.AddSet(Rec({4, 5}).view());

  EXPECT_TRUE(db.ReplaceSet(a, Rec({6, 7, 8, 9}).view()));
  EXPECT_EQ(db.set_size(a), 4u);
  EXPECT_EQ(db.set(a)[0], 6u);
  EXPECT_EQ(db.GarbageTokens(), 3u);  // the old {1,2,3} span
  EXPECT_EQ(db.TotalTokens(), 6u);
  // Neighbor untouched.
  EXPECT_EQ(db.set_size(b), 2u);
  EXPECT_EQ(db.set(b)[0], 4u);

  // Replacing a deleted id is an error, not a resurrection.
  ASSERT_TRUE(db.DeleteSet(b));
  EXPECT_FALSE(db.ReplaceSet(b, Rec({1}).view()));
  EXPECT_TRUE(db.is_deleted(b));
  EXPECT_FALSE(db.ReplaceSet(999, Rec({1}).view()));

  // Universe still grows through ReplaceSet.
  EXPECT_TRUE(db.ReplaceSet(a, Rec({50}).view()));
  EXPECT_GE(db.num_tokens(), 51u);
}

// ---------------------------------------------------------------------------
// Roaring / BitmapColumn Remove across container shapes.
// ---------------------------------------------------------------------------

TEST(MutabilityBitmapTest, RoaringRemoveArrayContainer) {
  bitmap::Roaring r;
  for (uint32_t v : {5u, 100u, 70000u}) r.Add(v);
  EXPECT_TRUE(r.Remove(100));
  EXPECT_FALSE(r.Contains(100));
  EXPECT_TRUE(r.Contains(5));
  EXPECT_TRUE(r.Contains(70000));
  EXPECT_EQ(r.Cardinality(), 2u);
  EXPECT_FALSE(r.Remove(100));  // already gone
  EXPECT_FALSE(r.Remove(12345));  // never present

  // Draining a chunk drops its container entirely.
  EXPECT_TRUE(r.Remove(70000));
  EXPECT_TRUE(r.Remove(5));
  EXPECT_TRUE(r.Empty());
}

TEST(MutabilityBitmapTest, RoaringRemoveBitsetContainer) {
  std::vector<uint32_t> values;
  for (uint32_t v = 0; v < 5000; ++v) values.push_back(v * 2);
  bitmap::Roaring r = bitmap::Roaring::FromSorted(values);
  ASSERT_EQ(r.Cardinality(), 5000u);  // > 4096 in one chunk -> bitset

  EXPECT_TRUE(r.Remove(2468));
  EXPECT_FALSE(r.Contains(2468));
  EXPECT_TRUE(r.Contains(2466));
  EXPECT_TRUE(r.Contains(2470));
  EXPECT_EQ(r.Cardinality(), 4999u);
  EXPECT_FALSE(r.Remove(3));  // odd value never present
}

TEST(MutabilityBitmapTest, RoaringRemoveRunContainer) {
  std::vector<uint32_t> values;
  for (uint32_t v = 10; v < 110; ++v) values.push_back(v);  // one run
  for (uint32_t v = 200; v < 210; ++v) values.push_back(v);
  bitmap::Roaring r = bitmap::Roaring::FromSorted(values);
  r.RunOptimize();

  // Middle of a run (splits it), run head, run tail, and a full miss.
  EXPECT_TRUE(r.Remove(50));
  EXPECT_TRUE(r.Remove(10));
  EXPECT_TRUE(r.Remove(109));
  EXPECT_FALSE(r.Remove(150));
  EXPECT_FALSE(r.Contains(50));
  EXPECT_FALSE(r.Contains(10));
  EXPECT_FALSE(r.Contains(109));
  EXPECT_TRUE(r.Contains(49));
  EXPECT_TRUE(r.Contains(51));
  EXPECT_TRUE(r.Contains(11));
  EXPECT_TRUE(r.Contains(108));
  EXPECT_EQ(r.Cardinality(), 107u);

  std::vector<uint32_t> expect;
  for (uint32_t v = 11; v < 109; ++v) {
    if (v != 50) expect.push_back(v);
  }
  for (uint32_t v = 200; v < 210; ++v) expect.push_back(v);
  EXPECT_EQ(r.ToVector(), expect);
}

TEST(MutabilityBitmapTest, ColumnRemoveBothBackends) {
  for (auto backend :
       {bitmap::BitmapBackend::kRoaring, bitmap::BitmapBackend::kBitVector}) {
    bitmap::BitmapColumn col(backend);
    col.Add(3);
    col.Add(17);
    col.Add(64);
    EXPECT_TRUE(col.Remove(17));
    EXPECT_FALSE(col.Remove(17));
    EXPECT_FALSE(col.Remove(99));
    EXPECT_FALSE(col.Contains(17));
    EXPECT_TRUE(col.Contains(3));
    EXPECT_TRUE(col.Contains(64));
    EXPECT_EQ(col.Cardinality(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Tgm: RemoveSet / ReinsertSet / SplitGroup / RecomputeGroupColumns.
// ---------------------------------------------------------------------------

/// Two groups: g0 = {0:{0,1}, 1:{0,2}, 2:{0,3,4}}, g1 = {3:{5,6}}.
struct SmallTgm {
  SetDatabase db{8};
  std::vector<GroupId> assignment;
  std::unique_ptr<tgm::Tgm> tgm;

  SmallTgm() {
    db.AddSet(Rec({0, 1}).view());
    db.AddSet(Rec({0, 2}).view());
    db.AddSet(Rec({0, 3, 4}).view());
    db.AddSet(Rec({5, 6}).view());
    assignment = {0, 0, 0, 1};
    tgm = std::make_unique<tgm::Tgm>(db, assignment, 2);
  }
};

TEST(MutabilityTgmTest, RemoveSetErasesMemberAndChargesDirt) {
  SmallTgm f;
  ASSERT_EQ(f.tgm->group_size(0), 3u);
  ASSERT_EQ(f.tgm->group_dirt(0), 0u);

  EXPECT_TRUE(f.tgm->RemoveSet(1, 2));
  EXPECT_EQ(f.tgm->group_of(1), kInvalidGroup);
  EXPECT_EQ(f.tgm->group_size(0), 2u);
  EXPECT_EQ(f.tgm->group_dirt(0), 1u);
  EXPECT_EQ(f.tgm->TotalDirt(), 1u);
  // Members list no longer carries id 1.
  const auto& members = f.tgm->group_members(0);
  EXPECT_EQ(std::count(members.begin(), members.end(), SetId{1}), 0);

  // Column bits are NOT cleared (stale-bit debt, still admissible): token
  // 2 belonged only to set 1 yet M[0, 2] stays set.
  EXPECT_TRUE(f.tgm->Test(0, 2));

  // Double-remove and unknown ids fail.
  EXPECT_FALSE(f.tgm->RemoveSet(1, 2));
  EXPECT_FALSE(f.tgm->RemoveSet(99, 1));
}

TEST(MutabilityTgmTest, RemoveLastMemberDropsNonemptyCount) {
  SmallTgm f;
  ASSERT_EQ(f.tgm->num_nonempty_groups(), 2u);
  EXPECT_TRUE(f.tgm->RemoveSet(3, 2));
  EXPECT_EQ(f.tgm->group_size(1), 0u);
  EXPECT_EQ(f.tgm->num_nonempty_groups(), 1u);
}

TEST(MutabilityTgmTest, RecomputeGroupColumnsDropsStaleBits) {
  SmallTgm f;
  ASSERT_TRUE(f.tgm->RemoveSet(1, 2));
  f.db.DeleteSet(1);

  size_t dropped = f.tgm->RecomputeGroupColumns(0, f.db);
  EXPECT_EQ(dropped, 1u);  // token 2 was unique to the removed set
  EXPECT_FALSE(f.tgm->Test(0, 2));
  // Shared token 0 survives (sets 0 and 2 still carry it).
  EXPECT_TRUE(f.tgm->Test(0, 0));
  EXPECT_EQ(f.tgm->group_dirt(0), 0u);
  EXPECT_EQ(f.tgm->TotalDirt(), 0u);
}

TEST(MutabilityTgmTest, ReinsertSplicesAtSizeIdPosition) {
  SmallTgm f;
  // Update set 2 ({0,3,4}, size 3) down to size 1: it must land *before*
  // the size-2 members in its new group's (size, id)-ordered run.
  ASSERT_TRUE(f.tgm->RemoveSet(2, 3));
  ASSERT_TRUE(f.db.ReplaceSet(2, Rec({0}).view()));
  GroupId g = f.tgm->ReinsertSet(2, f.db.set(2), SimilarityMeasure::kJaccard);
  ASSERT_NE(g, kInvalidGroup);
  EXPECT_EQ(f.tgm->group_of(2), g);
  EXPECT_TRUE(f.tgm->Test(g, 0));

  const auto& members = f.tgm->group_members(g);
  auto pos = std::find(members.begin(), members.end(), SetId{2});
  ASSERT_NE(pos, members.end());
  // Every member before it is no larger; every member after no smaller.
  for (auto it = members.begin(); it != pos; ++it) {
    EXPECT_LE(f.db.set_size(*it), f.db.set_size(2));
  }
  for (auto it = pos + 1; it != members.end(); ++it) {
    EXPECT_GE(f.db.set_size(*it), f.db.set_size(2));
  }
}

TEST(MutabilityTgmTest, SplitGroupMovesUpperHalfToNewGroup) {
  SmallTgm f;
  ASSERT_EQ(f.tgm->num_groups(), 2u);
  GroupId fresh = f.tgm->SplitGroup(0, f.db);
  ASSERT_EQ(fresh, 2u);
  EXPECT_EQ(f.tgm->num_groups(), 3u);
  EXPECT_EQ(f.tgm->group_size(0) + f.tgm->group_size(2), 3u);
  EXPECT_GE(f.tgm->group_size(0), 1u);
  EXPECT_GE(f.tgm->group_size(2), 1u);

  // Moved members point at the new group; the largest set moved.
  for (SetId id : f.tgm->group_members(2)) {
    EXPECT_EQ(f.tgm->group_of(id), fresh);
    // New group's columns were built fresh from the moved members.
    for (TokenId t : f.db.set(id)) EXPECT_TRUE(f.tgm->Test(fresh, t));
  }
  EXPECT_EQ(f.tgm->group_of(2), fresh);  // size-3 set is the upper half

  // Source group carries the moved members' bits as dirt now.
  EXPECT_GT(f.tgm->group_dirt(0), 0u);

  // Singleton and empty groups refuse to split.
  EXPECT_EQ(f.tgm->SplitGroup(1, f.db), kInvalidGroup);
}

// ---------------------------------------------------------------------------
// Zero-count backfill can never resurrect a tombstoned set (satellite:
// Knn tie-handling / Describe audit). The deleted member is physically
// erased from its group run, so the backfill walk cannot see it.
// ---------------------------------------------------------------------------

TEST(MutabilityIndexTest, BackfillNeverResurrectsDeletedSets) {
  SetDatabase db(16);
  for (TokenId t = 0; t < 8; ++t) {
    db.AddSet(Rec({t, static_cast<TokenId>(t + 1)}).view());
  }
  std::vector<GroupId> assignment = {0, 0, 1, 1, 2, 2, 3, 3};
  search::Les3Index index(std::move(db), assignment, 4);

  ASSERT_TRUE(index.Delete(3));
  ASSERT_TRUE(index.Delete(6));

  // A query disjoint from every set: every live set is a similarity-0
  // tie, served purely by the zero-count backfill. Deleted ids must not
  // appear even with k spanning the whole database.
  SetRecord probe = Rec({15});
  auto hits = index.Knn(probe.view(), index.db().size());
  ASSERT_EQ(hits.size(), index.db().num_live());
  for (const auto& hit : hits) {
    EXPECT_NE(hit.first, 3u);
    EXPECT_NE(hit.first, 6u);
    EXPECT_DOUBLE_EQ(hit.second, 0.0);
  }
  // Tie order among the zero hits is ascending id.
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LT(hits[i - 1].first, hits[i].first);
  }

  // Range at delta 0 backfills too; same guarantee.
  auto range_hits = index.Range(probe.view(), 0.0);
  ASSERT_EQ(range_hits.size(), index.db().num_live());
  for (const auto& hit : range_hits) {
    EXPECT_NE(hit.first, 3u);
    EXPECT_NE(hit.first, 6u);
  }
}

// ---------------------------------------------------------------------------
// Maintenance policy.
// ---------------------------------------------------------------------------

TEST(MutabilityMaintenanceTest, GroupActivityObserveScoreDecay) {
  search::GroupActivity activity(2);
  activity.Observe(0, 4);  // 1 visit + 4 candidates
  activity.Observe(0, 0);
  activity.Observe(1, 9);
  activity.Observe(7, 100);  // out of range: dropped, not UB
  EXPECT_EQ(activity.Score(0), 6u);
  EXPECT_EQ(activity.Score(1), 10u);
  EXPECT_EQ(activity.Score(7), 0u);

  activity.Decay();
  EXPECT_EQ(activity.Score(0), 3u);
  EXPECT_EQ(activity.Score(1), 5u);

  activity.Grow(9);
  EXPECT_EQ(activity.Score(0), 3u);  // counts preserved across Grow
  activity.Observe(7, 0);
  EXPECT_EQ(activity.Score(7), 1u);
}

search::Les3Index MakeDriftedIndex(size_t* deleted_out) {
  datagen::ZipfOptions opts;
  opts.num_sets = 300;
  opts.num_tokens = 100;
  opts.avg_set_size = 6;
  opts.zipf_exponent = 0.8;
  opts.seed = 33;
  SetDatabase db = datagen::GenerateZipf(opts);
  std::vector<GroupId> assignment(db.size());
  for (SetId id = 0; id < db.size(); ++id) assignment[id] = id % 8;
  search::Les3Index index(std::move(db), assignment, 8);
  // Delete every 3rd set: plenty of stale bits in every group.
  size_t deleted = 0;
  for (SetId id = 0; id < index.db().size(); id += 3) {
    if (index.Delete(id)) ++deleted;
  }
  *deleted_out = deleted;
  return index;
}

TEST(MutabilityMaintenanceTest, CyclesHealDirtWithoutChangingAnswers) {
  size_t deleted = 0;
  search::Les3Index index = MakeDriftedIndex(&deleted);
  ASSERT_GT(index.tgm().TotalDirt(), 0u);

  SetRecord probe = Rec({1, 2, 3, 9});
  auto before = index.Knn(probe.view(), 20);

  search::MaintenanceOptions options;
  options.dirt_ratio = 0.0;       // every dirty group is due
  options.max_ops_per_cycle = 4;  // but cycles stay bounded
  search::MaintenanceReport total;
  size_t cycles = 0;
  while (index.tgm().TotalDirt() > 0) {
    search::MaintenanceReport report =
        search::MaintainIndexOnce(&index, options);
    ASSERT_LE(report.splits + report.recomputes, options.max_ops_per_cycle);
    ASSERT_GT(report.splits + report.recomputes, 0u)
        << "no progress with dirt remaining";
    total += report;
    ASSERT_LT(++cycles, 1000u);
  }
  EXPECT_GT(total.recomputes, 0u);
  EXPECT_GT(total.bits_dropped, 0u);
  EXPECT_EQ(index.tgm().TotalDirt(), 0u);

  // Healing only drops stale bits — answers are bit-for-bit identical.
  auto after = index.Knn(probe.view(), 20);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].first, after[i].first);
    EXPECT_DOUBLE_EQ(before[i].second, after[i].second);
  }
}

TEST(MutabilityMaintenanceTest, SplitsOvergrownGroupsAtTheMedian) {
  // Group 0 holds 60 members, groups 1..3 hold 4 each: mean live size is
  // 18, so factor 2.0 flags only group 0.
  SetDatabase db(64);
  std::vector<GroupId> assignment;
  for (int i = 0; i < 60; ++i) {
    db.AddSet(Rec({static_cast<TokenId>(i % 50),
                   static_cast<TokenId>((i + 7) % 50)})
                  .view());
    assignment.push_back(0);
  }
  for (int i = 0; i < 12; ++i) {
    db.AddSet(Rec({static_cast<TokenId>(50 + i % 10)}).view());
    assignment.push_back(static_cast<GroupId>(1 + i % 3));
  }
  search::Les3Index index(std::move(db), assignment, 4);

  SetRecord probe = Rec({3, 10, 52});
  auto before = index.Knn(probe.view(), 15);

  search::MaintenanceOptions options;
  options.overgrown_factor = 2.0;
  options.min_split_size = 8;
  options.max_ops_per_cycle = 8;
  search::GroupActivity activity(index.tgm().num_groups());
  search::MaintenanceReport report =
      search::MaintainIndexOnce(&index, options, &activity);
  EXPECT_GE(report.splits, 1u);
  EXPECT_GT(index.tgm().num_groups(), 4u);
  // Activity tracker grew alongside the matrix.
  EXPECT_EQ(activity.size(), index.tgm().num_groups());
  // No group is left above the (new) overgrown threshold by more than
  // one cycle's backlog; the flagged group at least halved.
  EXPECT_LE(index.tgm().group_size(0), 30u);

  auto after = index.Knn(probe.view(), 15);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].first, after[i].first);
    EXPECT_DOUBLE_EQ(before[i].second, after[i].second);
  }
}

TEST(MutabilityMaintenanceTest, OpsPerCycleBoundsTheCriticalSection) {
  size_t deleted = 0;
  search::Les3Index index = MakeDriftedIndex(&deleted);
  search::MaintenanceOptions options;
  options.dirt_ratio = 0.0;
  options.max_ops_per_cycle = 1;
  search::MaintenanceReport report = search::MaintainIndexOnce(&index, options);
  EXPECT_EQ(report.splits + report.recomputes, 1u);
}

// ---------------------------------------------------------------------------
// Engine-level contract: statuses, Describe population, StableDb.
// ---------------------------------------------------------------------------

std::unique_ptr<api::SearchEngine> BuildEngine(const std::string& backend,
                                               size_t num_shards = 0) {
  datagen::ZipfOptions opts;
  opts.num_sets = 120;
  opts.num_tokens = 60;
  opts.avg_set_size = 5;
  opts.seed = 17;
  auto db = std::make_shared<SetDatabase>(datagen::GenerateZipf(opts));
  api::EngineOptions options;
  options.num_groups = 8;
  options.cascade.init_groups = 8;
  options.cascade.min_group_size = 8;
  options.cascade.pairs_per_model = 500;
  options.cascade.seed = 5;
  if (num_shards > 0) options.num_shards = num_shards;
  auto engine = api::EngineBuilder::Build(std::move(db), backend, options);
  EXPECT_TRUE(engine.ok()) << backend << ": " << engine.status().ToString();
  return engine.ok() ? std::move(engine).ValueOrDie() : nullptr;
}

TEST(MutabilityEngineTest, DeleteUpdateStatusContract) {
  for (const std::string& backend : {"les3", "brute_force"}) {
    auto engine = BuildEngine(backend);
    ASSERT_NE(engine, nullptr) << backend;

    EXPECT_EQ(engine->Delete(999999).code(), StatusCode::kNotFound) << backend;
    EXPECT_EQ(engine->Update(999999, Rec({1, 2})).code(),
              StatusCode::kNotFound)
        << backend;

    ASSERT_TRUE(engine->Delete(5).ok()) << backend;
    EXPECT_EQ(engine->Delete(5).code(), StatusCode::kNotFound)
        << backend << ": double delete";
    EXPECT_EQ(engine->Update(5, Rec({1, 2})).code(), StatusCode::kNotFound)
        << backend << ": update of deleted id";

    // Update keeps the id and changes answers.
    ASSERT_TRUE(engine->Update(7, Rec({55, 56, 57})).ok()) << backend;
    api::QueryResult result = engine->Knn(Rec({55, 56, 57}).view(), 1);
    ASSERT_TRUE(result.status.ok()) << backend;
    ASSERT_EQ(result.hits.size(), 1u) << backend;
    EXPECT_EQ(result.hits[0].first, 7u) << backend;
    EXPECT_DOUBLE_EQ(result.hits[0].second, 1.0) << backend;

    // Describe reports the live/deleted population once holes exist.
    std::string describe = engine->Describe();
    EXPECT_NE(describe.find("deleted=1"), std::string::npos)
        << backend << ": " << describe;
    EXPECT_NE(describe.find("live="), std::string::npos) << backend;
  }
}

TEST(MutabilityEngineTest, DefaultStableDbAliasesTheLiveDatabase) {
  // Engines on the serialized-mutation contract return a no-copy alias;
  // the caller already must not mutate concurrently. (les3 is a one-shard
  // sharded engine and copies, like sharded_les3.)
  auto engine = BuildEngine("brute_force");
  ASSERT_NE(engine, nullptr);
  std::shared_ptr<const SetDatabase> view = engine->StableDb();
  EXPECT_EQ(view.get(), &engine->db());
}

TEST(MutabilityEngineTest, Les3MaintainNowAfterDeletesMatchesBruteForce) {
  auto engine = BuildEngine("les3");
  ASSERT_NE(engine, nullptr);
  EXPECT_TRUE(engine->SupportsConcurrentInsert());
  // Every 3rd set deleted plus a few updates: stale column bits in most
  // groups, so maintenance has debt to pay.
  for (SetId id = 0; id < engine->db().size(); id += 3) {
    ASSERT_TRUE(engine->Delete(id).ok()) << id;
  }
  for (SetId id = 1; id < 40; id += 6) {
    ASSERT_TRUE(engine
                    ->Update(id, Rec({static_cast<TokenId>(id % 60),
                                      static_cast<TokenId>(59 - id % 7)}))
                    .ok())
        << id;
  }
  ASSERT_NE(engine->Describe().find("dirt="), std::string::npos)
      << engine->Describe();

  search::MaintenanceReport total;
  for (int cycle = 0; cycle < 50; ++cycle) {
    Result<search::MaintenanceReport> report = engine->MaintainNow();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (report.value().splits + report.value().recomputes == 0) break;
    total += report.value();
  }
  EXPECT_GT(total.recomputes, 0u);
  EXPECT_GT(total.bits_dropped, 0u);

  // The healed engine answers exactly like brute force over the same
  // (tombstoned) database, ties included.
  auto oracle = api::EngineBuilder::Build(
      std::make_shared<SetDatabase>(*engine->StableDb()), "brute_force",
      api::EngineOptions());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  for (SetId id = 0; id < engine->db().size(); id += 5) {
    SetRecord q(engine->db().set(id));
    for (size_t k : {1u, 7u, 200u}) {
      auto expected = oracle.value()->Knn(q.view(), k);
      auto actual = engine->Knn(q.view(), k);
      ASSERT_EQ(expected.hits.size(), actual.hits.size()) << id << "/" << k;
      for (size_t r = 0; r < expected.hits.size(); ++r) {
        EXPECT_EQ(expected.hits[r].first, actual.hits[r].first)
            << "q=" << id << " k=" << k << " rank " << r;
        EXPECT_DOUBLE_EQ(expected.hits[r].second, actual.hits[r].second)
            << "q=" << id << " k=" << k << " rank " << r;
      }
    }
    auto expected = oracle.value()->Range(q.view(), 0.4);
    auto actual = engine->Range(q.view(), 0.4);
    ASSERT_EQ(expected.hits.size(), actual.hits.size()) << "q=" << id;
    for (size_t r = 0; r < expected.hits.size(); ++r) {
      EXPECT_EQ(expected.hits[r].first, actual.hits[r].first)
          << "range q=" << id << " rank " << r;
    }
  }
}

TEST(MutabilityEngineTest, PruningEfficiencyCountsLiveSetsAfterDeletes) {
  // les3 and sharded_les3 report Definition 2.3 over the live population,
  // the figure CandidateVerifier computes per index (num_live, not the
  // id-space size that still counts tombstones).
  for (size_t shards : {size_t{0}, size_t{3}}) {
    const std::string backend = shards == 0 ? "les3" : "sharded_les3";
    auto engine = BuildEngine(backend, shards);
    ASSERT_NE(engine, nullptr);
    for (SetId id = 0; id < engine->db().size(); id += 4) {
      ASSERT_TRUE(engine->Delete(id).ok()) << backend << " " << id;
    }
    const uint64_t live = engine->db().num_live();
    const uint64_t id_space = engine->db().size();
    ASSERT_LT(live, id_space);
    bool differs_from_id_space = false;
    for (SetId id = 1; id < id_space; id += 9) {
      SetRecord q(engine->db().set(id));
      api::QueryResult knn = engine->Knn(q.view(), 5);
      EXPECT_DOUBLE_EQ(knn.stats.pruning_efficiency,
                       search::KnnPruningEfficiency(
                           live, knn.stats.candidates_verified, 5))
          << backend << " knn q=" << id;
      api::QueryResult range = engine->Range(q.view(), 0.3);
      EXPECT_DOUBLE_EQ(range.stats.pruning_efficiency,
                       search::RangePruningEfficiency(
                           live, range.stats.candidates_verified,
                           range.stats.results))
          << backend << " range q=" << id;
      differs_from_id_space |=
          knn.stats.pruning_efficiency !=
          search::KnnPruningEfficiency(id_space,
                                       knn.stats.candidates_verified, 5);
    }
    // The check above would pass on either population if no query ever
    // verified more than k candidates.
    EXPECT_TRUE(differs_from_id_space) << backend;
  }
}

TEST(MutabilityEngineTest, ShardedStableDbIsIsolatedFromLaterMutations) {
  auto engine = BuildEngine("sharded_les3", 3);
  ASSERT_NE(engine, nullptr);

  std::shared_ptr<const SetDatabase> view = engine->StableDb();
  const size_t size_before = view->size();
  const size_t live_before = view->num_live();
  std::vector<TokenId> tokens7(view->set(7).begin(), view->set(7).end());

  ASSERT_TRUE(engine->Delete(3).ok());
  ASSERT_TRUE(engine->Update(7, Rec({58, 59})).ok());
  ASSERT_TRUE(engine->Insert(Rec({1, 2, 3})).ok());

  EXPECT_EQ(view->size(), size_before);
  EXPECT_EQ(view->num_live(), live_before);
  EXPECT_FALSE(view->is_deleted(3));
  std::vector<TokenId> tokens7_after(view->set(7).begin(),
                                     view->set(7).end());
  EXPECT_EQ(tokens7, tokens7_after);

  // A fresh view sees the mutations.
  std::shared_ptr<const SetDatabase> fresh = engine->StableDb();
  EXPECT_EQ(fresh->size(), size_before + 1);
  EXPECT_TRUE(fresh->is_deleted(3));
  EXPECT_EQ(fresh->set_size(7), 2u);
}

}  // namespace
}  // namespace les3

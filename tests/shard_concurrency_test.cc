// Concurrency contract of the sharded engine (and of les3, its one-shard
// case), exercised under ThreadSanitizer in CI: Insert is safe
// concurrently with Knn/Range on every shard and with other Inserts.
// Writer threads stream new sets in while reader threads hammer queries;
// afterwards the quiesced engine must agree exactly with brute force over
// the grown database — so the test catches both data races (TSan) and
// lost/duplicated updates (the differential check).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine_builder.h"
#include "api/engine_options.h"
#include "datagen/generators.h"
#include "search/maintenance.h"
#include "shard/sharded_engine.h"

namespace les3 {
namespace api {
namespace {

std::shared_ptr<SetDatabase> MakeDb(uint64_t seed, uint32_t num_sets) {
  datagen::ZipfOptions opts;
  opts.num_sets = num_sets;
  opts.num_tokens = 80;
  opts.avg_set_size = 6;
  opts.zipf_exponent = 0.9;
  opts.seed = seed;
  return std::make_shared<SetDatabase>(datagen::GenerateZipf(opts));
}

EngineOptions ShardedOptions(uint32_t num_shards) {
  EngineOptions options;
  options.backend = Backend::kShardedLes3;
  options.num_shards = num_shards;
  options.num_groups = 10;
  options.cascade.init_groups = 8;
  options.cascade.min_group_size = 6;
  options.cascade.pairs_per_model = 800;
  options.cascade.seed = 19;
  options.num_threads = 4;
  return options;
}

TEST(ShardConcurrencyTest, ConcurrentInsertAndQuery) {
  constexpr uint32_t kInitialSets = 240;
  constexpr int kWriters = 2;
  constexpr int kInsertsPerWriter = 40;
  constexpr int kReaders = 3;

  auto db = MakeDb(51, kInitialSets);
  // Query records are snapshotted up front: readers must not touch the
  // (growing) global database while writers run.
  std::vector<SetRecord> queries;
  for (SetId qid = 0; qid < 24; ++qid) queries.emplace_back(db->set(qid * 9));

  auto built = EngineBuilder::Build(db, ShardedOptions(3));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SearchEngine* engine = built.value().get();

  std::atomic<bool> writers_done{false};
  std::atomic<int> insert_failures{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        SetRecord novel = SetRecord::FromTokens(
            {static_cast<TokenId>(100 + w * kInsertsPerWriter + i),
             static_cast<TokenId>(3 + (i % 5)),
             static_cast<TokenId>(40 + (i % 7))});
        if (!engine->Insert(std::move(novel)).ok()) ++insert_failures;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      // Keep querying until every writer finished, then one final pass so
      // each reader also queries the fully grown engine.
      do {
        const SetRecord& q = queries[i % queries.size()];
        auto knn = engine->Knn(q, 5);
        ASSERT_LE(knn.hits.size(), 5u);
        auto range = engine->Range(q, 0.5);
        ASSERT_EQ(range.stats.results, range.hits.size());
        ++i;
      } while (!writers_done.load());
    });
  }
  // Join writers (the first kWriters threads), release the readers.
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(insert_failures.load(), 0);
  ASSERT_EQ(engine->db().size(),
            kInitialSets + static_cast<size_t>(kWriters * kInsertsPerWriter));

  // Quiesced differential check: no insert was lost, duplicated, or
  // routed to a shard that cannot answer for it.
  EngineOptions reference_options;
  reference_options.backend = Backend::kBruteForce;
  auto reference = EngineBuilder::Build(db, reference_options);
  ASSERT_TRUE(reference.ok());
  for (SetId qid = 0; qid < engine->db().size(); qid += 23) {
    SetView q = engine->db().set(qid);
    auto expected = reference.value()->Knn(q, 10);
    auto actual = engine->Knn(q, 10);
    ASSERT_EQ(expected.hits.size(), actual.hits.size()) << "q=" << qid;
    for (size_t i = 0; i < expected.hits.size(); ++i) {
      EXPECT_EQ(expected.hits[i].first, actual.hits[i].first)
          << "q=" << qid << " rank " << i;
      EXPECT_DOUBLE_EQ(expected.hits[i].second, actual.hits[i].second)
          << "q=" << qid << " rank " << i;
    }
  }
}

TEST(ShardConcurrencyTest, ConcurrentBatchQueriesDuringInserts) {
  auto db = MakeDb(52, 180);
  std::vector<SetRecord> queries;
  for (SetId qid = 0; qid < 16; ++qid) queries.emplace_back(db->set(qid * 11));

  auto built = EngineBuilder::Build(db, ShardedOptions(2));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SearchEngine* engine = built.value().get();

  // Batch queries stripe (query, shard) tasks over the engine pool while
  // a writer mutates shards — the pool tasks and the writer contend on
  // the same per-shard locks.
  std::thread writer([&] {
    for (int i = 0; i < 30; ++i) {
      auto id = engine->Insert(SetRecord::FromTokens(
          {static_cast<TokenId>(90 + i), static_cast<TokenId>(i % 13)}));
      ASSERT_TRUE(id.ok());
    }
  });
  for (int round = 0; round < 5; ++round) {
    auto batch = engine->KnnBatch(queries, 6);
    ASSERT_EQ(batch.size(), queries.size());
    auto ranges = engine->RangeBatch(queries, 0.4);
    ASSERT_EQ(ranges.size(), queries.size());
  }
  writer.join();
  EXPECT_EQ(engine->db().size(), 180u + 30u);
}

// Regression for the documented ShardedEngine::db() race: StableDb() is
// the supported read path while mutations run. Reader threads snapshot
// and fully scan the copy while writers Insert/Delete/Update; TSan
// certifies the locking, the invariant checks certify each snapshot is a
// consistent point-in-time state (never a half-applied mutation).
TEST(ShardConcurrencyTest, StableDbSafeDuringMutations) {
  constexpr uint32_t kInitialSets = 200;
  auto db = MakeDb(53, kInitialSets);
  auto built = EngineBuilder::Build(db, ShardedOptions(3));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SearchEngine* engine = built.value().get();

  std::atomic<bool> writers_done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 60; ++i) {
        const SetId target =
            static_cast<SetId>((w * 89 + i * 7) % kInitialSets);
        switch (i % 3) {
          case 0:
            ASSERT_TRUE(engine
                            ->Insert(SetRecord::FromTokens(
                                {static_cast<TokenId>(100 + i),
                                 static_cast<TokenId>(w)}))
                            .ok());
            break;
          case 1:
            // NotFound (already deleted by the other writer) is fine;
            // what matters is that the attempt is race-free.
            (void)engine->Delete(target);
            break;
          default:
            (void)engine->Update(
                target, SetRecord::FromTokens(
                            {static_cast<TokenId>(i % 80),
                             static_cast<TokenId>(30 + w)}));
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      do {
        std::shared_ptr<const SetDatabase> view = engine->StableDb();
        // Full scan of the snapshot: every token byte is read, so TSan
        // sees any write that slipped past the mutation lock.
        uint64_t live_tokens = 0;
        size_t live = 0;
        for (SetId id = 0; id < view->size(); ++id) {
          if (view->is_deleted(id)) {
            ASSERT_EQ(view->set_size(id), 0u);
            continue;
          }
          ++live;
          for (TokenId t : view->set(id)) live_tokens += t + 1;
        }
        ASSERT_EQ(live, view->num_live());
        ASSERT_EQ(view->num_live() + view->num_deleted(), view->size());
        (void)live_tokens;
      } while (!writers_done.load());
    });
  }
  for (int w = 0; w < 2; ++w) threads[w].join();
  writers_done.store(true);
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(engine->db().size(), kInitialSets + 2u * 20u);
  EXPECT_GT(engine->db().num_deleted(), 0u);
}

// Sustained mixed-mutation soak with the self-healing maintenance thread
// running: inserts, deletes, updates, and queries hammer the shards while
// background cycles split/recompute groups under the same shard locks.
// Afterwards the quiesced engine (plus one synchronous full maintenance
// pass) must agree exactly with brute force over the survivor state.
void RunMutationSoakWithMaintenance(const EngineOptions& options) {
  constexpr uint32_t kInitialSets = 240;
  auto db = MakeDb(54, kInitialSets);
  std::vector<SetRecord> queries;
  for (SetId qid = 0; qid < 20; ++qid) queries.emplace_back(db->set(qid * 11));

  auto built = EngineBuilder::Build(db, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SearchEngine* engine = built.value().get();
  auto* sharded = dynamic_cast<shard::ShardedEngine*>(engine);
  ASSERT_NE(sharded, nullptr);

  search::MaintenanceOptions maintenance;
  maintenance.interval = std::chrono::milliseconds(1);
  maintenance.dirt_ratio = 0.0;  // heal aggressively while traffic runs
  maintenance.min_split_size = 8;
  sharded->StartMaintenance(maintenance);

  std::atomic<bool> writers_done{false};
  std::atomic<int> insert_failures{0};
  std::vector<std::thread> threads;
  constexpr int kWriters = 2;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 90; ++i) {
        const SetId target =
            static_cast<SetId>((w * 131 + i * 17) % kInitialSets);
        switch (i % 4) {
          case 0:
          case 1:
            if (!engine
                     ->Insert(SetRecord::FromTokens(
                         {static_cast<TokenId>(90 + w * 90 + i),
                          static_cast<TokenId>(5 + (i % 11))}))
                     .ok()) {
              ++insert_failures;
            }
            break;
          case 2:
            (void)engine->Delete(target);
            break;
          default:
            (void)engine->Update(
                target, SetRecord::FromTokens(
                            {static_cast<TokenId>(i % 70),
                             static_cast<TokenId>(71 + (w + i) % 8)}));
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      do {
        const SetRecord& q = queries[i % queries.size()];
        auto knn = engine->Knn(q, 7);
        ASSERT_LE(knn.hits.size(), 7u);
        for (const auto& hit : knn.hits) ASSERT_GE(hit.second, 0.0);
        auto range = engine->Range(q, 0.4);
        ASSERT_EQ(range.stats.results, range.hits.size());
        ++i;
      } while (!writers_done.load());
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  sharded->StopMaintenance();

  EXPECT_EQ(insert_failures.load(), 0);
  EXPECT_GT(engine->db().num_deleted(), 0u);

  // One synchronous full pass: quiesced, so the report is deterministic
  // evidence the engine still had (or no longer has) debt to pay.
  Result<search::MaintenanceReport> report = sharded->MaintainNow();
  ASSERT_TRUE(report.ok());  // content depends on how much the background
                             // thread won

  // The healed engine answers exactly like brute force over the survivor
  // database (tombstones skipped), including similarity ties.
  EngineOptions reference_options;
  reference_options.backend = Backend::kBruteForce;
  auto reference = EngineBuilder::Build(
      std::make_shared<SetDatabase>(engine->db()), reference_options);
  ASSERT_TRUE(reference.ok());
  for (SetId qid = 0; qid < engine->db().size(); qid += 17) {
    if (engine->db().is_deleted(qid)) continue;
    SetRecord q(engine->db().set(qid));
    auto expected = reference.value()->Knn(q.view(), 10);
    auto actual = engine->Knn(q.view(), 10);
    ASSERT_EQ(expected.hits.size(), actual.hits.size()) << "q=" << qid;
    for (size_t i = 0; i < expected.hits.size(); ++i) {
      EXPECT_EQ(expected.hits[i].first, actual.hits[i].first)
          << "q=" << qid << " rank " << i;
      EXPECT_DOUBLE_EQ(expected.hits[i].second, actual.hits[i].second)
          << "q=" << qid << " rank " << i;
    }
  }
}

TEST(ShardConcurrencyTest, MutationSoakWithMaintenanceStaysExact) {
  RunMutationSoakWithMaintenance(ShardedOptions(3));
}

// The single-index backend is the one-shard engine and inherits the same
// contract: unserialized mutations, queries and background maintenance.
TEST(ShardConcurrencyTest, Les3MutationSoakWithMaintenanceStaysExact) {
  EngineOptions options = ShardedOptions(3);  // num_shards ignored for les3
  options.backend = Backend::kLes3;
  RunMutationSoakWithMaintenance(options);
}

// The batched probe pipeline under fire — the TSan leg for the fused
// (chunk, shard) sub-batches: KnnBatch/RangeBatch stripe whole chunks
// through each shard's index under one reader lock while writers mutate
// shards and the background maintenance thread splits/heals them. The
// thread_local probe scratch, the per-shard activity counters, and the
// striped lock acquisitions all race here. Once quiesced, batch answers
// must equal solo answers bit for bit.
TEST(ShardConcurrencyTest, BatchedProbesDuringMutationSoak) {
  constexpr uint32_t kInitialSets = 200;
  auto db = MakeDb(55, kInitialSets);
  std::vector<SetRecord> queries;
  for (SetId qid = 0; qid < 80; ++qid) {
    queries.emplace_back(db->set((qid * 7) % kInitialSets));
  }
  queries.emplace_back();  // one empty row rides every batch

  auto built = EngineBuilder::Build(db, ShardedOptions(3));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SearchEngine* engine = built.value().get();
  auto* sharded = dynamic_cast<shard::ShardedEngine*>(engine);
  ASSERT_NE(sharded, nullptr);

  search::MaintenanceOptions maintenance;
  maintenance.interval = std::chrono::milliseconds(1);
  maintenance.dirt_ratio = 0.0;
  maintenance.min_split_size = 8;
  sharded->StartMaintenance(maintenance);

  std::atomic<bool> writers_done{false};
  std::thread writer([&] {
    for (int i = 0; i < 120; ++i) {
      const SetId target = static_cast<SetId>((i * 13) % kInitialSets);
      switch (i % 4) {
        case 0:
        case 1:
          (void)engine->Insert(SetRecord::FromTokens(
              {static_cast<TokenId>(30 + i % 40),
               static_cast<TokenId>(3 + (i % 9))}));
          break;
        case 2:
          (void)engine->Delete(target);
          break;
        default:
          (void)engine->Update(target,
                               SetRecord::FromTokens(
                                   {static_cast<TokenId>(i % 60),
                                    static_cast<TokenId>(61 + i % 10)}));
      }
    }
    writers_done.store(true);
  });
  // Batches large enough to cross the 64-query chunk boundary, so several
  // (chunk, shard) sub-batches are in flight per call.
  while (!writers_done.load()) {
    auto batch = engine->KnnBatch(queries, 6);
    ASSERT_EQ(batch.size(), queries.size());
    for (const auto& result : batch) ASSERT_LE(result.hits.size(), 6u);
    auto ranges = engine->RangeBatch(queries, 0.4);
    ASSERT_EQ(ranges.size(), queries.size());
    for (const auto& result : ranges) {
      ASSERT_EQ(result.stats.results, result.hits.size());
    }
  }
  writer.join();
  sharded->StopMaintenance();

  // Quiesced differential: the fused pipeline and the solo path walk the
  // same healed index and must agree exactly.
  auto batch = engine->KnnBatch(queries, 6);
  auto ranges = engine->RangeBatch(queries, 0.4);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo_knn = engine->Knn(queries[i].view(), 6);
    ASSERT_EQ(solo_knn.hits.size(), batch[i].hits.size()) << "q=" << i;
    for (size_t r = 0; r < solo_knn.hits.size(); ++r) {
      EXPECT_EQ(solo_knn.hits[r].first, batch[i].hits[r].first)
          << "q=" << i << " rank " << r;
      EXPECT_EQ(solo_knn.hits[r].second, batch[i].hits[r].second)
          << "q=" << i << " rank " << r;
    }
    auto solo_range = engine->Range(queries[i].view(), 0.4);
    ASSERT_EQ(solo_range.hits.size(), ranges[i].hits.size()) << "q=" << i;
    for (size_t r = 0; r < solo_range.hits.size(); ++r) {
      EXPECT_EQ(solo_range.hits[r].first, ranges[i].hits[r].first)
          << "q=" << i << " rank " << r;
      EXPECT_EQ(solo_range.hits[r].second, ranges[i].hits[r].second)
          << "q=" << i << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace api
}  // namespace les3

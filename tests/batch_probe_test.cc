// Differential suite for the batched column-probe pipeline — the one LES3
// query path, where a single Knn / Range is a batch of one. Every answer
// is anchored to an independent oracle: hits to the brute_force engine
// (ids, similarity bit patterns, order), and per-query TGM probe counts to
// Tgm::MatchedCountsReference (a plain per-bit column walk). Per-query
// counters of a batch must also equal those of the same query asked alone,
// so no row depends on its batch-mates. Covered on every backend, every
// similarity measure, and both bitmap backends — including ragged batches,
// empty queries, duplicate-token multisets, out-of-universe tokens,
// unreachable thresholds, a batch of one, and interleaved mutations. Any
// divergence here is a bug, not a tolerance.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/engine_builder.h"
#include "api/engine_options.h"
#include "api/search_engine.h"
#include "core/similarity.h"
#include "datagen/generators.h"
#include "search/builder.h"
#include "tgm/tgm.h"
#include "util/random.h"

namespace les3 {
namespace api {
namespace {

std::shared_ptr<SetDatabase> MakeDb(uint64_t seed, uint32_t num_sets = 400,
                                    uint32_t num_tokens = 120) {
  datagen::ZipfOptions opts;
  opts.num_sets = num_sets;
  opts.num_tokens = num_tokens;
  opts.avg_set_size = 8;
  opts.zipf_exponent = 0.8;
  opts.seed = seed;
  return std::make_shared<SetDatabase>(datagen::GenerateZipf(opts));
}

EngineOptions FastOptions() {
  EngineOptions options;
  options.num_groups = 24;
  options.num_shards = 3;  // exercises the (chunk, shard) striping + id map
  options.cascade.init_groups = 16;
  options.cascade.min_group_size = 10;
  options.cascade.pairs_per_model = 2000;
  options.cascade.seed = 7;
  return options;
}

std::unique_ptr<SearchEngine> MustBuild(std::shared_ptr<SetDatabase> db,
                                        const std::string& backend,
                                        EngineOptions options) {
  auto engine = EngineBuilder::Build(std::move(db), backend, options);
  EXPECT_TRUE(engine.ok()) << backend << ": " << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

/// The ragged query battery: empty set, singleton, duplicate-token
/// multiset, tokens beyond the trained universe, a wide set, and a spread
/// of database sets (so cache-free batches mix hot and cold columns).
std::vector<SetRecord> RaggedQueries(const SetDatabase& db,
                                     uint32_t num_tokens) {
  std::vector<SetRecord> queries;
  queries.emplace_back();                                      // empty
  queries.push_back(SetRecord::FromSortedTokens({0}));         // singleton
  queries.push_back(SetRecord::FromSortedTokens({5, 5, 5}));   // multiset
  queries.push_back(SetRecord::FromSortedTokens(               // unseen ids
      {num_tokens + 3, num_tokens + 9}));
  {
    std::vector<TokenId> wide;
    for (TokenId t = 0; t < 40; t += 2) wide.push_back(t);
    queries.push_back(SetRecord::FromSortedTokens(std::move(wide)));
  }
  for (SetId i = 0; i < db.size(); i += 37) {
    queries.emplace_back(db.set(i));
  }
  // A duplicate of an earlier query: both rows must fan out independently.
  queries.push_back(queries[1]);
  return queries;
}

/// Byte-exact: same ids, same similarity BIT PATTERNS, same order.
void ExpectExactHits(const std::vector<Hit>& expected,
                     const std::vector<Hit>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, actual[i].first) << label << " rank " << i;
    EXPECT_EQ(expected[i].second, actual[i].second) << label << " rank " << i;
  }
}

/// Every deterministic counter must agree too — micros is wall time and
/// is the one field allowed to differ.
void ExpectExactStats(const search::QueryStats& expected,
                      const search::QueryStats& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.candidates_verified, actual.candidates_verified) << label;
  EXPECT_EQ(expected.candidates_size_skipped, actual.candidates_size_skipped)
      << label;
  EXPECT_EQ(expected.groups_visited, actual.groups_visited) << label;
  EXPECT_EQ(expected.groups_pruned, actual.groups_pruned) << label;
  EXPECT_EQ(expected.columns_scanned, actual.columns_scanned) << label;
  EXPECT_EQ(expected.results, actual.results) << label;
  EXPECT_EQ(expected.pruning_efficiency, actual.pruning_efficiency) << label;
}

/// Batch answers must equal the brute-force oracle's; each query asked
/// alone (a batch of one) must too, and with `check_stats` its counters
/// must equal its row of the full batch.
void ExpectBatchMatchesOracle(const SearchEngine& engine,
                              const SearchEngine& oracle,
                              const std::vector<SetRecord>& queries,
                              const std::string& label, bool check_stats) {
  for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{1000}}) {
    std::vector<QueryResult> batch = engine.KnnBatch(queries, k);
    ASSERT_EQ(batch.size(), queries.size()) << label;
    for (size_t i = 0; i < queries.size(); ++i) {
      std::string tag =
          label + " knn k=" + std::to_string(k) + " q=" + std::to_string(i);
      std::vector<Hit> expected = oracle.Knn(queries[i].view(), k).hits;
      QueryResult alone = engine.Knn(queries[i].view(), k);
      EXPECT_TRUE(batch[i].status.ok()) << tag;
      ExpectExactHits(expected, batch[i].hits, tag);
      ExpectExactHits(expected, alone.hits, tag + " alone");
      if (check_stats) ExpectExactStats(alone.stats, batch[i].stats, tag);
    }
  }
  // 1.1 is an unreachable threshold (finite, above every measure's upper
  // bound): the query rides along in the batch as hopeless and must
  // answer empty.
  for (double delta : {0.0, 0.3, 0.7, 1.1}) {
    std::vector<QueryResult> batch = engine.RangeBatch(queries, delta);
    ASSERT_EQ(batch.size(), queries.size()) << label;
    for (size_t i = 0; i < queries.size(); ++i) {
      std::string tag = label + " range d=" + std::to_string(delta) +
                        " q=" + std::to_string(i);
      std::vector<Hit> expected = oracle.Range(queries[i].view(), delta).hits;
      QueryResult alone = engine.Range(queries[i].view(), delta);
      EXPECT_TRUE(batch[i].status.ok()) << tag;
      ExpectExactHits(expected, batch[i].hits, tag);
      ExpectExactHits(expected, alone.hits, tag + " alone");
      if (check_stats) ExpectExactStats(alone.stats, batch[i].stats, tag);
    }
  }
}

std::unique_ptr<SearchEngine> BruteForce(std::shared_ptr<SetDatabase> db,
                                         SimilarityMeasure measure) {
  EngineOptions options = FastOptions();
  options.measure = measure;
  return MustBuild(std::move(db), "brute_force", options);
}

// Every backend, one mixed batch: the fused pipelines (les3, sharded_les3)
// and the thread-pooled base path must all be invisible in the answers.
TEST(BatchProbe, AllBackendsMatchBruteForce) {
  auto db = MakeDb(31);
  std::vector<SetRecord> queries = RaggedQueries(*db, 120);
  auto oracle = BruteForce(db, SimilarityMeasure::kJaccard);
  for (const std::string& backend : BackendNames()) {
    auto engine = MustBuild(db, backend, FastOptions());
    // Stats comparison is meaningful on the fused pipelines; the base
    // path answers each batch query through the single-query entry point.
    bool check_stats = backend == "les3" || backend == "sharded_les3";
    ExpectBatchMatchesOracle(*engine, *oracle, queries, backend, check_stats);
  }
}

// The batched accumulators have per-measure weights and two bitmap
// decoders; sweep the full grid on the fused backends.
TEST(BatchProbe, MeasuresTimesBitmapBackendsMatchBruteForce) {
  auto db = MakeDb(32);
  std::vector<SetRecord> queries = RaggedQueries(*db, 120);
  for (SimilarityMeasure measure :
       {SimilarityMeasure::kJaccard, SimilarityMeasure::kDice,
        SimilarityMeasure::kCosine, SimilarityMeasure::kContainment}) {
    auto oracle = BruteForce(db, measure);
    for (bitmap::BitmapBackend bitmap_backend :
         {bitmap::BitmapBackend::kRoaring, bitmap::BitmapBackend::kBitVector}) {
      for (const std::string& backend : {std::string("les3"),
                                         std::string("sharded_les3")}) {
        EngineOptions options = FastOptions();
        options.measure = measure;
        options.bitmap_backend = bitmap_backend;
        auto engine = MustBuild(db, backend, options);
        std::string label = backend + "/" + ToString(measure) + "/" +
                            bitmap::ToString(bitmap_backend);
        ExpectBatchMatchesOracle(*engine, *oracle, queries, label, true);
      }
    }
  }
}

// Degenerate batch shapes the fan-out plan must not trip over.
TEST(BatchProbe, DegenerateBatchShapes) {
  auto db = MakeDb(33);
  auto engine = MustBuild(db, "les3", FastOptions());
  auto oracle = BruteForce(db, SimilarityMeasure::kJaccard);

  std::vector<SetRecord> empty_batch;
  EXPECT_TRUE(engine->KnnBatch(empty_batch, 5).empty());
  EXPECT_TRUE(engine->RangeBatch(empty_batch, 0.5).empty());

  std::vector<SetRecord> one{SetRecord(db->set(3))};
  ExpectBatchMatchesOracle(*engine, *oracle, one, "batch-of-1", true);

  // All rows identical: every subscribing row accumulates the same
  // columns; answers must still be per-row exact.
  std::vector<SetRecord> same(17, SetRecord(db->set(7)));
  ExpectBatchMatchesOracle(*engine, *oracle, same, "identical-rows", true);

  // All rows empty: nothing subscribes to anything.
  std::vector<SetRecord> empties(5);
  ExpectBatchMatchesOracle(*engine, *oracle, empties, "all-empty", true);
}

// A batch larger than the sharded engine's chunk size crosses the chunk
// boundary; per-query answers must not depend on where the cuts fall.
TEST(BatchProbe, BatchesLargerThanChunkStayExact) {
  auto db = MakeDb(34, 300);
  auto engine = MustBuild(db, "sharded_les3", FastOptions());
  auto oracle = BruteForce(db, SimilarityMeasure::kJaccard);
  std::vector<SetRecord> queries;
  for (size_t i = 0; i < 150; ++i) {
    queries.emplace_back(db->set(static_cast<SetId>((i * 13) % db->size())));
  }
  std::vector<QueryResult> batch = engine->KnnBatch(queries, 7);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    std::string tag = "chunk q=" + std::to_string(i);
    QueryResult alone = engine->Knn(queries[i].view(), 7);
    ExpectExactHits(oracle->Knn(queries[i].view(), 7).hits, batch[i].hits,
                    tag);
    ExpectExactStats(alone.stats, batch[i].stats, tag);
  }
}

// Mutations between batches: at every index state (tombstones, fresh
// inserts, updated content — the stale-bit and arena-garbage machinery
// included) the batch and the single-query path must answer exactly like
// brute force over the same live database.
TEST(BatchProbe, ExactAcrossMutations) {
  auto db = MakeDb(35, 300);
  auto engine = MustBuild(db, "sharded_les3", FastOptions());
  std::vector<SetRecord> queries = RaggedQueries(engine->db(), 120);

  auto check = [&](const std::string& phase) {
    auto oracle = BruteForce(
        std::make_shared<SetDatabase>(*engine->StableDb()),
        SimilarityMeasure::kJaccard);
    std::vector<QueryResult> batch = engine->KnnBatch(queries, 5);
    std::vector<QueryResult> rbatch = engine->RangeBatch(queries, 0.4);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::string tag = phase + " q=" + std::to_string(i);
      std::vector<Hit> knn = oracle->Knn(queries[i].view(), 5).hits;
      std::vector<Hit> range = oracle->Range(queries[i].view(), 0.4).hits;
      ExpectExactHits(knn, batch[i].hits, tag + " knn");
      ExpectExactHits(knn, engine->Knn(queries[i].view(), 5).hits,
                      tag + " knn alone");
      ExpectExactHits(range, rbatch[i].hits, tag + " range");
      ExpectExactHits(range, engine->Range(queries[i].view(), 0.4).hits,
                      tag + " range alone");
    }
  };

  check("pristine");
  for (SetId id = 0; id < 60; id += 3) ASSERT_TRUE(engine->Delete(id).ok());
  check("after-deletes");
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine->Insert(SetRecord(db->set((i * 7) % db->size()))).ok());
  }
  check("after-inserts");
  for (SetId id = 61; id < 100; id += 2) {  // ids the delete pass skipped
    ASSERT_TRUE(engine->Update(id, SetRecord(db->set(id + 100))).ok());
  }
  check("after-updates");
  auto report = engine->MaintainNow();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  check("after-maintenance");
}

/// What the probe must report for `query` at threshold `min_count`,
/// derived from the per-bit reference walk alone: the reference counter
/// row and column count, or — when even a group holding every query token
/// with a non-empty column could not reach `min_count` — an all-zero row
/// and no columns.
struct ExpectedProbe {
  std::vector<uint32_t> counts;
  size_t columns = 0;
  std::vector<GroupId> candidates;
};

ExpectedProbe ReferenceProbe(const tgm::Tgm& tgm, SetView query,
                             uint32_t min_count) {
  ExpectedProbe out;
  out.columns = tgm.MatchedCountsReference(query, &out.counts);
  uint32_t attainable = 0;
  tgm::ForEachTokenMultiplicity(query, [&](TokenId t, uint32_t m) {
    for (GroupId g = 0; g < tgm.num_groups(); ++g) {
      if (t < tgm.num_token_columns() && tgm.Test(g, t)) {
        attainable += m;
        break;
      }
    }
  });
  if (min_count > 0 && attainable < min_count) {
    out.counts.assign(tgm.num_groups(), 0);
    out.columns = 0;
    return out;
  }
  for (GroupId g = 0; g < tgm.num_groups(); ++g) {
    if (out.counts[g] >= min_count) out.candidates.push_back(g);
  }
  return out;
}

// The probe itself against the reference walk: every row of a batch (and
// every one-query call) must carry the reference counts, column count and
// harvested candidates, across thresholds that keep, prune and
// short-circuit, on both bitmap backends and after mutations left stale
// bits behind.
TEST(BatchProbe, ProbeMatchesReferenceWalk) {
  auto db = MakeDb(36, 300);
  std::vector<SetRecord> records = RaggedQueries(*db, 120);
  std::vector<SetView> queries;
  for (const SetRecord& r : records) queries.push_back(r.view());
  Rng rng(36);
  std::vector<GroupId> assignment(db->size());
  for (GroupId& g : assignment) g = static_cast<GroupId>(rng.Uniform(24));
  for (bitmap::BitmapBackend backend :
       {bitmap::BitmapBackend::kRoaring, bitmap::BitmapBackend::kBitVector}) {
    tgm::Tgm tgm(*db, assignment, 24, backend);
    tgm.RunOptimize();
    for (int phase = 0; phase < 2; ++phase) {
      if (phase == 1) {  // stale column bits: counts over-approximate
        for (SetId id = 0; id < 90; id += 3) {
          ASSERT_TRUE(tgm.RemoveSet(id, db->set_size(id)));
        }
      }
      for (uint32_t threshold : {0u, 1u, 2u, 3u, 50u}) {
        std::string label = bitmap::ToString(backend) + " phase=" +
                            std::to_string(phase) +
                            " min=" + std::to_string(threshold);
        std::vector<uint32_t> min_counts(queries.size(), threshold);
        std::vector<uint32_t> counts;
        std::vector<std::vector<GroupId>> candidates;
        std::vector<size_t> columns;
        tgm.MatchedCandidatesBatch(queries.data(), queries.size(),
                                   min_counts.data(), &counts, &candidates,
                                   &columns);
        ASSERT_EQ(counts.size(), queries.size() * tgm.num_groups());
        for (size_t q = 0; q < queries.size(); ++q) {
          std::string tag = label + " q=" + std::to_string(q);
          ExpectedProbe expected = ReferenceProbe(tgm, queries[q], threshold);
          std::vector<uint32_t> row(
              counts.begin() + q * tgm.num_groups(),
              counts.begin() + (q + 1) * tgm.num_groups());
          EXPECT_EQ(row, expected.counts) << tag;
          EXPECT_EQ(columns[q], expected.columns) << tag;
          EXPECT_EQ(candidates[q], expected.candidates) << tag;

          std::vector<uint32_t> one_counts;
          std::vector<GroupId> one_candidates;
          EXPECT_EQ(tgm.MatchedCandidates(queries[q], threshold, &one_counts,
                                          &one_candidates),
                    expected.columns)
              << tag;
          EXPECT_EQ(one_counts, expected.counts) << tag;
          EXPECT_EQ(one_candidates, expected.candidates) << tag;
        }
      }
    }
  }
}

// The verifier's per-query columns_scanned is the probe count the
// reference walk predicts for that query's threshold: 1 for a non-empty
// kNN query (0 for the empty one), MinOverlapForThreshold for range.
TEST(BatchProbe, ColumnsScannedMatchReferenceWalk) {
  auto db = std::make_shared<SetDatabase>(*MakeDb(37));
  std::vector<SetRecord> records = RaggedQueries(*db, 120);
  std::vector<SetView> queries;
  for (const SetRecord& r : records) queries.push_back(r.view());
  search::Les3BuildOptions build;
  build.num_groups = 24;
  build.cascade = FastOptions().cascade;
  search::Les3Index index = search::BuildIndexOverShared(db, build);

  std::vector<std::vector<Hit>> hits;
  std::vector<search::QueryStats> stats;
  index.KnnBatch(queries.data(), queries.size(), 5, &hits, &stats);
  for (size_t q = 0; q < queries.size(); ++q) {
    uint32_t min_count = queries[q].size() == 0 ? 0 : 1;
    EXPECT_EQ(stats[q].columns_scanned,
              ReferenceProbe(index.tgm(), queries[q], min_count).columns)
        << "knn q=" << q;
  }
  for (double delta : {0.3, 0.7, 1.1}) {
    index.RangeBatch(queries.data(), queries.size(), delta, &hits, &stats);
    for (size_t q = 0; q < queries.size(); ++q) {
      size_t min_count = MinOverlapForThreshold(SimilarityMeasure::kJaccard,
                                                queries[q].size(), delta);
      size_t expected =
          min_count > queries[q].size()
              ? 0
              : ReferenceProbe(index.tgm(), queries[q],
                               static_cast<uint32_t>(min_count))
                    .columns;
      EXPECT_EQ(stats[q].columns_scanned, expected)
          << "range d=" << delta << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace api
}  // namespace les3

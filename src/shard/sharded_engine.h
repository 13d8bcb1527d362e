// ShardedEngine — the scatter-gather serving engine: one LES3 index per
// shard, hash-partitioned by set id, behind the unified SearchEngine API.
//
// LES3's build cost is dominated by learning the partitioning (paper
// Figure 7) and its query cost by probing one monolithic TGM; both are
// single-index today. Sharding attacks both at once:
//
//  - Build: the database is split by `id mod num_shards` and every shard
//    trains its own L2P cascade and builds its own TGM **in parallel** on
//    a thread pool, so the Figure 7 bottleneck scales with cores.
//  - Queries: every query entry point runs one (chunk, shard) scatter
//    grid (a single query is a batch of one) — every shard answers its
//    local top-k, and the per-shard results merge through TopKHits under
//    the canonical HitOrder, so the global answer is exact (ids,
//    similarities, order, ties included) even when a shard holds fewer
//    than k sets. Range concatenates the per-shard exact answers and
//    re-sorts.
//  - Mutations: Insert/Delete/Update route to exactly one shard, taking
//    that shard's writer lock only — queries on every shard (including
//    the one being written, via its std::shared_mutex) stay safe
//    concurrently. This upgrades the engine-wide thread-safety contract:
//    on this backend, every mutating op IS safe concurrently with
//    Knn/Range and with other mutations.
//  - Self-healing: an optional background maintenance thread
//    (search/maintenance.h) rotates across shards, splitting overgrown
//    groups and dropping the stale column bits deletes leave behind, so
//    pruning quality stays bounded under sustained mutation without a
//    rebuild. Queries feed it per-group activity through the verifier's
//    group-visit hook.
//
// Id mapping is arithmetic, not tabulated: shard s holds the global ids
// {s, s+S, s+2S, ...} in order, so local id l in shard s is global id
// l*S + s and a fresh insert (global id = |D|) lands at exactly the next
// local id of its shard. The mapping therefore survives any number of
// inserts and is re-derived for free when a snapshot reopens.
//
// Snapshots: Save writes format v2 (docs/snapshot_format.md) — the global
// database plus one PART/TGMC pair per shard — and EngineBuilder::Open
// reconstructs the engine with zero partitioning or training work.
//
// The single-index backend `les3` is this engine with one shard: the
// slice is the global database, every query grid is one cell run on the
// caller, and Save writes the v1 single-index format (with the trained
// L2P cascade when it was kept). The backend name the engine was built or
// opened as picks the snapshot version (persist::SnapshotVersionOf), the
// Describe() prefix, and whether trained models are kept.

#ifndef LES3_SHARD_SHARDED_ENGINE_H_
#define LES3_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "api/engine_options.h"
#include "api/search_engine.h"
#include "persist/snapshot.h"
#include "search/les3_index.h"
#include "search/maintenance.h"

namespace les3 {
namespace shard {

class ShardedEngine : public api::SearchEngine {
 public:
  /// Splits `db` by id mod num_shards and builds every shard's index in
  /// parallel. `db` must be non-null and non-empty. options.backend is
  /// kLes3 (one shard; options.num_shards ignored; keep_l2p_models kept)
  /// or kShardedLes3 (options.num_shards >= 1, clamped to the database
  /// size so no shard starts empty); EngineBuilder validates all of it.
  static std::unique_ptr<ShardedEngine> Build(
      std::shared_ptr<SetDatabase> db, const api::EngineOptions& options);

  /// Reconstructs the engine from a decoded snapshot — zero partitioning
  /// or training work; the decoder has already validated every shard's
  /// shape against the id-mod-S split. `backend` is kLes3 for a v1
  /// snapshot (one shard, models carried over) or kShardedLes3 for a v2
  /// one; EngineBuilder::Open checks the pairing with
  /// persist::SnapshotVersionOf.
  static std::unique_ptr<ShardedEngine> FromSnapshot(
      persist::LoadedSnapshot snapshot, api::Backend backend,
      const api::OpenOptions& options);

  /// Exact global kNN: the scatter grid with one query (see KnnBatch),
  /// stats.micros the measured wall time. Safe concurrently with Insert.
  api::QueryResult Knn(SetView query, size_t k) const override;

  /// Batch queries stripe (chunk, shard) sub-batches across ONE thread
  /// pool: the batch is cut into fixed-size chunks and each shard answers
  /// a whole chunk in one fused Les3Index::KnnBatch call under a single
  /// reader-lock acquisition — one batched column probe per (shard,
  /// chunk) instead of one task per (query, shard). Results are merged
  /// per query through TopKHits. stats.micros is the slowest shard's
  /// share (the scatter-gather critical path).
  std::vector<api::QueryResult> KnnBatch(const std::vector<SetRecord>& queries,
                                         size_t k) const override;

  /// Routes the set to shard (new id) mod num_shards, locking only that
  /// shard for writing. Returns the GLOBAL id. Safe concurrently with
  /// queries on every shard and with other Inserts.
  Result<SetId> Insert(SetRecord set) override;

  /// Tombstones global id `id` in its shard (writer lock on that shard
  /// only) and in the global database. Same concurrency contract as
  /// Insert: safe with queries everywhere and with other mutations.
  Status Delete(SetId id) override;

  /// Replaces global id `id` in place, re-routing it through Section 6
  /// insertion inside its shard. Same concurrency contract as Insert.
  Status Update(SetId id, SetRecord set) override;

  /// The per-shard reader-writer locks make concurrent mutation + query
  /// the contract on this backend (file comment above).
  bool SupportsConcurrentInsert() const override { return true; }

  /// Starts the background maintenance thread (no-op if already running).
  /// Each wake maintains ONE shard (round-robin) under that shard's
  /// writer lock, so a cycle never stalls queries on other shards.
  void StartMaintenance(const search::MaintenanceOptions& options);

  /// Stops and joins the maintenance thread; idempotent.
  void StopMaintenance();

  /// Runs one synchronous maintenance cycle over EVERY shard — the
  /// deterministic entry point for tests, benchmarks, and the serve
  /// admin verb (kMaintainNow). Safe while the background thread runs
  /// (shard locks serialize the cycles). Never fails on this backend.
  Result<search::MaintenanceReport> MaintainNow() override;

  /// Writes the snapshot version of the backend name (v1 as `les3`, with
  /// the kept L2P models; v2 as `sharded_les3`). Takes
  /// every shard lock, so it is safe concurrently with queries and
  /// Inserts (they wait).
  Status Save(const std::string& path) const override;

  uint64_t IndexBytes() const override;
  std::string Describe() const override;

  /// The global database. NOT safe to read concurrently with mutations
  /// (queries never touch it; they read the per-shard slices) — use
  /// StableDb() when writers may be live. At 2+ shards the slices are
  /// copies, so set storage is held twice — the global view serves
  /// db()/Save and the id assignment; see the trade-offs section of
  /// docs/sharding.md. IndexBytes() reports index structures only, as on
  /// every backend.
  const SetDatabase& db() const override { return *global_db_; }

  /// Race-free database view: a deep copy of the global database taken
  /// under the mutation lock (O(|D|) — every mutating op holds insert_mu_,
  /// so the copy observes a consistent prefix). This is the supported way
  /// to read the database while Insert/Delete/Update run concurrently.
  std::shared_ptr<const SetDatabase> StableDb() const override;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

 protected:
  /// Exact global range search: the scatter grid with one query,
  /// per-shard exact answers concatenated and re-sorted under HitOrder.
  /// Safe concurrently with Insert. (Backend hook of the validating
  /// api::SearchEngine::Range template method.)
  api::QueryResult RangeImpl(SetView query, double delta) const override;

  /// Stripes (chunk, shard) sub-batches across ONE thread pool, like
  /// KnnBatch.
  std::vector<api::QueryResult> RangeBatchImpl(
      const std::vector<SetRecord>& queries, double delta) const override;

 private:
  /// One shard: its database slice, its index, and its reader-writer lock.
  /// With a single shard the slice IS the global database (no copy).
  struct Shard {
    mutable std::shared_mutex mu;
    std::shared_ptr<SetDatabase> db;
    std::unique_ptr<search::Les3Index> index;
  };

  /// What one shard contributes to a query: hits already mapped to global
  /// ids, the shard's stats, and its live population (for pruning
  /// efficiency over the whole database; deleted ids are not searchable,
  /// as in the per-index figure).
  struct Probe {
    std::vector<Hit> hits;
    search::QueryStats stats;
    uint64_t shard_size = 0;
  };

  ShardedEngine(api::Backend backend, std::shared_ptr<SetDatabase> db,
                size_t num_shards, SimilarityMeasure measure,
                bitmap::BitmapBackend bitmap_backend, size_t num_threads,
                bool from_snapshot);

  /// Splits the global database into per-shard slices (shared with the
  /// global database when there is only one shard).
  static std::vector<std::shared_ptr<SetDatabase>> SplitDb(
      const std::shared_ptr<SetDatabase>& db, size_t num_shards);

  /// One shard's batch entry: Les3Index::KnnBatch or RangeBatch with the
  /// query parameter bound.
  using ShardBatchFn = std::function<void(
      const search::Les3Index&, const SetView*, size_t,
      std::vector<std::vector<Hit>>*, std::vector<search::QueryStats>*,
      const search::CandidateVerifier::GroupVisitFn&)>;

  /// \brief The scatter grid behind every query entry point: cuts the `nq`
  /// queries into fixed-size chunks and runs each (chunk, shard) cell as
  /// ONE `run` call on that shard under a single reader-lock acquisition,
  /// striped across the engine pool (a one-cell grid — one query, one
  /// shard — runs on the caller). Returns nq * num_shards probes, query
  /// q's from shard s at [q * num_shards + s], hits mapped to global ids —
  /// the one place the locking protocol and the id mapping live.
  std::vector<Probe> Scatter(const SetView* queries, size_t nq,
                             const ShardBatchFn& run) const;

  /// Scatter + per-query merge, shared by the single-query and batch
  /// entry points.
  std::vector<api::QueryResult> KnnViews(const SetView* queries, size_t nq,
                                         size_t k) const;
  std::vector<api::QueryResult> RangeViews(const SetView* queries, size_t nq,
                                           double delta) const;

  /// Sums one probe's counters into `stats` and tracks the whole-database
  /// size and the slowest probe (the scatter-gather critical path).
  static void AccumulateProbe(const Probe& probe, search::QueryStats* stats,
                              uint64_t* db_size, double* critical_path);
  /// Merge one query's num_shards() probes (contiguous from `probes`).
  api::QueryResult MergeKnn(const Probe* probes, size_t k) const;
  api::QueryResult MergeRange(const Probe* probes) const;

  /// One bounded maintenance cycle on shard `s`, under its writer lock.
  search::MaintenanceReport MaintainShard(size_t s);

  /// kLes3 or kShardedLes3 (file comment above).
  api::Backend backend_;
  std::shared_ptr<SetDatabase> global_db_;
  std::vector<std::unique_ptr<Shard>> shards_;
  SimilarityMeasure measure_;
  bitmap::BitmapBackend bitmap_backend_;
  bool from_snapshot_;
  /// Trained cascade weights carried for a v1 Save (`les3` only; nothing
  /// on the query or mutation path reads them).
  std::vector<l2p::CascadeModelSnapshot> l2p_models_;
  /// Serializes global-id assignment and global_db_ mutation across
  /// concurrent Insert/Delete/Update (and StableDb copies); always
  /// acquired before any shard lock.
  mutable std::mutex insert_mu_;
  /// Per-shard query-activity counters (sized with shards_, never
  /// resized) feeding maintenance priorities; written from queries under
  /// the shard reader lock via relaxed atomics.
  std::vector<std::unique_ptr<search::GroupActivity>> activities_;
  search::MaintenanceOptions maintenance_options_;
  /// Round-robin shard cursor for the background thread.
  std::atomic<size_t> maintenance_cursor_{0};
  /// Declared last so it is destroyed (and joined) before the shards it
  /// walks. StopMaintenance() in the destructor path makes this explicit.
  std::unique_ptr<search::MaintenanceThread> maintenance_;
};

}  // namespace shard
}  // namespace les3

#endif  // LES3_SHARD_SHARDED_ENGINE_H_

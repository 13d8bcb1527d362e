// The unified query interface over every searcher in the repo.
//
// All backends — LES3 (the paper's method), the comparison baselines of
// Figures 11-13, and the disk-resident variants — answer the same exact
// kNN / range queries; only their pruning strategy and cost profile differ.
// SearchEngine makes that interchangeability explicit: one polymorphic
// interface returning one QueryResult, so benches, examples, tools, and
// future scale work (sharding, caching, async) are written once against
// the interface instead of once per backend. Engines are obtained from
// EngineBuilder (api/engine_builder.h).
//
// Thread-safety: Knn/Range are const and safe to call concurrently;
// KnnBatch/RangeBatch exploit that via util/thread_pool.h. The mutating
// ops (Insert/Delete/Update) share one per-backend contract, reported by
// SupportsConcurrentInsert(): the in-memory LES3 backends ("les3" and
// "sharded_les3", both shard/sharded_engine.h — les3 is its one-shard
// case) guard each shard with a reader-writer lock, so every mutating op
// IS safe concurrently with queries and with other mutations; on
// brute_force, the only other backend that mutates, they are NOT safe
// concurrently with queries on the same engine — see docs/sharding.md
// and docs/mutability.md. db() returns a bare reference and bypasses
// those locks; use StableDb() wherever mutations may run concurrently.

#ifndef LES3_API_SEARCH_ENGINE_H_
#define LES3_API_SEARCH_ENGINE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/set_record.h"
#include "core/types.h"
#include "search/maintenance.h"
#include "search/query_stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace les3 {
namespace api {

/// Simulated I/O accounting of one query on a disk-resident backend
/// (storage/disk.h cost model).
struct DiskIoStats {
  double io_ms = 0.0;
  uint64_t seeks = 0;
  uint64_t pages = 0;
};

/// \brief Outcome of one query, identical in shape across all backends.
struct QueryResult {
  std::vector<Hit> hits;      // descending similarity, ties by ascending id
  search::QueryStats stats;   // candidates / PE / CPU micros
  std::optional<DiskIoStats> io;  // engaged only on disk backends

  /// OK for every answered query. Non-OK (with empty hits) when the
  /// request itself was rejected before reaching the backend — e.g.
  /// Range with a non-finite delta returns InvalidArgument.
  Status status = Status::OK();

  /// End-to-end latency: CPU time plus simulated I/O time (if any) — the
  /// quantity Figures 12 and 13 report.
  double TotalMs() const {
    return stats.micros / 1000.0 + (io ? io->io_ms : 0.0);
  }
};

/// \brief Abstract exact set-similarity searcher.
///
/// Implementations adapt one concrete backend (api/adapters.cc). The base
/// class provides thread-pooled batch queries on top of the virtual
/// single-query entry points; backends with a smarter multi-query plan may
/// override the batch methods.
class SearchEngine {
 public:
  virtual ~SearchEngine() = default;

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  /// Exact kNN (Definition 2.1): the k most similar sets.
  virtual QueryResult Knn(SetView query, size_t k) const = 0;

  /// Exact range search (Definition 2.2): all sets with Sim >= delta.
  /// Non-virtual template method: validates the request (a non-finite
  /// delta yields an InvalidArgument QueryResult — letting NaN reach the
  /// kernels' double->size_t threshold cast would be undefined behavior)
  /// and then dispatches to the backend's RangeImpl.
  QueryResult Range(SetView query, double delta) const;

  /// Answers every query independently across the engine's thread pool.
  /// results[i] is exactly what Knn(queries[i], k) returns.
  virtual std::vector<QueryResult> KnnBatch(
      const std::vector<SetRecord>& queries, size_t k) const;

  /// Batch counterpart of Range; results[i] == Range(queries[i], delta).
  /// Validates delta once up front (same contract as Range), then
  /// dispatches to RangeBatchImpl.
  std::vector<QueryResult> RangeBatch(const std::vector<SetRecord>& queries,
                                      double delta) const;

  /// Inserts a set into the database and index, returning its id. Backends
  /// whose index cannot absorb inserts return NotSupported. Mutates the
  /// database shared with any sibling engines built over it.
  virtual Result<SetId> Insert(SetRecord set);

  /// Deletes set `id` from the database and index. The id is tombstoned,
  /// never reused, and can no longer appear in any result (including the
  /// kNN zero-similarity backfill). NotFound when `id` is out of range or
  /// already deleted; NotSupported on backends without mutation support.
  virtual Status Delete(SetId id);

  /// Replaces set `id` with new content, keeping the same id (the index
  /// re-routes it as a Section 6 insertion). NotFound when `id` is out of
  /// range or deleted; NotSupported on backends without mutation support.
  virtual Status Update(SetId id, SetRecord set);

  /// Runs one synchronous maintenance pass (docs/mutability.md): pays down
  /// stale-bit debt and splits overgrown groups, returning the ops
  /// counters. Exactness-preserving — answers before and after are
  /// identical. NotSupported on backends without self-healing maintenance;
  /// the sharded engine (les3, sharded_les3) overrides it (one bounded
  /// cycle per shard).
  virtual Result<search::MaintenanceReport> MaintainNow();

  /// Whether the mutating ops (Insert/Delete/Update) are safe concurrently
  /// with Knn/Range (and with each other) on this engine — the sharded
  /// engine's upgraded contract (les3 and sharded_les3). Layers that
  /// interleave reads and writes on one engine (the network server,
  /// serve/server.h) key their locking off this: when false they
  /// serialize mutations against queries themselves.
  virtual bool SupportsConcurrentInsert() const { return false; }

  /// Persists the built index as a versioned snapshot
  /// (docs/snapshot_format.md) that EngineBuilder::Open reloads without
  /// any partitioning or training work. Supported by the les3-family
  /// backends (les3, disk_les3, sharded_les3); others return
  /// NotSupported. Safe concurrently with mutations on les3 and
  /// sharded_les3 (they wait); on disk_les3 the index is static.
  virtual Status Save(const std::string& path) const;

  /// Index footprint in bytes (Figure 11's metric); 0 for index-free
  /// backends such as brute force.
  virtual uint64_t IndexBytes() const = 0;

  /// One-line human-readable description: backend name + active knobs.
  virtual std::string Describe() const = 0;

  /// The database this engine searches. NOT safe concurrently with the
  /// mutating ops, even on engines whose SupportsConcurrentInsert() is
  /// true — the reference bypasses their locks. Use StableDb() there.
  virtual const SetDatabase& db() const = 0;

  /// A database view that is safe to read while mutations run. On engines
  /// without concurrent-mutation support this aliases the live database
  /// (no copy — the caller already must not mutate concurrently, per the
  /// contract above); the sharded engine (les3 included) overrides it to
  /// return a private copy taken under its locks, a consistent
  /// point-in-time snapshot that later mutations never touch (O(|D|) per
  /// call — a tooling/inspection path, not a query path).
  virtual std::shared_ptr<const SetDatabase> StableDb() const;

 protected:
  /// `batch_threads` sizes the lazily created batch pool (0 = hardware
  /// concurrency).
  explicit SearchEngine(size_t batch_threads = 0)
      : batch_threads_(batch_threads) {}

  /// Backend range search; delta is guaranteed finite here (the public
  /// Range validated it).
  virtual QueryResult RangeImpl(SetView query, double delta) const = 0;

  /// Backend batch range search; the base implementation fans RangeImpl
  /// out across pool(). Subclasses with a smarter multi-query plan (the
  /// sharded engine's striped batches) override this.
  virtual std::vector<QueryResult> RangeBatchImpl(
      const std::vector<SetRecord>& queries, double delta) const;

  /// The engine's pool, created on first use. Subclasses that fan out
  /// (the sharded engine's scatter and striped batches) share it; tasks
  /// submitted to it must never submit to it again (ThreadPool is not
  /// reentrant), which is why such subclasses override the batch methods
  /// instead of layering them over Knn/Range.
  ThreadPool& pool() const;

 private:
  size_t batch_threads_;
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace api
}  // namespace les3

#endif  // LES3_API_SEARCH_ENGINE_H_

// SearchEngine adapters over the concrete searchers. Two class templates
// cover the common shapes — memory indexes answering (query, x,
// QueryStats*) and disk indexes answering with a DiskQueryResult — so each
// backend is one instantiation plus a describe string. Every adapter
// shares the one owned SetDatabase it is built over through a raw pointer.
// The in-memory LES3 backends (les3, sharded_les3) are both
// shard::ShardedEngine; les3 is its one-shard case.

#include "api/adapters.h"

#include <utility>

#include "baselines/brute_force.h"
#include "baselines/dualtrans.h"
#include "baselines/invidx.h"
#include "search/builder.h"
#include "shard/sharded_engine.h"
#include "storage/disk_search.h"

namespace les3 {
namespace api {
namespace internal {
namespace {

QueryResult FromHits(std::vector<Hit> hits, const search::QueryStats& stats) {
  QueryResult result;
  result.hits = std::move(hits);
  result.stats = stats;
  return result;
}

QueryResult FromDisk(storage::DiskQueryResult r) {
  QueryResult result;
  result.hits = std::move(r.hits);
  result.stats = r.stats;
  result.io = DiskIoStats{r.io_ms, r.seeks, r.pages};
  return result;
}

std::string DescribeMeasure(const EngineOptions& options) {
  return "measure=" + ToString(options.measure);
}

/// Appends the live/deleted population to a describe string once holes
/// exist (Describe() must not count tombstoned ids as data; without holes
/// the string is unchanged, so describe-sensitive callers see no churn).
std::string AppendPopulation(const std::string& describe,
                             const SetDatabase& db) {
  if (db.num_deleted() == 0) return describe;
  return describe + " [live=" + std::to_string(db.num_live()) +
         ", deleted=" + std::to_string(db.num_deleted()) + "]";
}

/// Describe tail of the disk-resident LES3 engine: group count, bitmap
/// backend, persisted-model count, and snapshot provenance.
std::string DescribeLes3(SimilarityMeasure measure, uint32_t groups,
                         bitmap::BitmapBackend bitmap_backend,
                         size_t num_models, bool from_snapshot) {
  std::string s = "measure=" + ToString(measure) +
                  ", groups=" + std::to_string(groups) +
                  ", bitmap=" + bitmap::ToString(bitmap_backend);
  if (num_models > 0) s += ", l2p_models=" + std::to_string(num_models);
  if (from_snapshot) {
    s += ", snapshot=v" +
         std::to_string(persist::SnapshotVersionOf("disk_les3"));
  }
  return s;
}

baselines::InvIdxOptions InvIdxFrom(const EngineOptions& options) {
  baselines::InvIdxOptions o = options.invidx;
  o.measure = options.measure;
  return o;
}

baselines::DualTransOptions DualTransFrom(const EngineOptions& options) {
  baselines::DualTransOptions o = options.dualtrans;
  o.measure = options.measure;
  return o;
}

/// Index footprint; the scan baselines keep no index at all.
uint64_t IndexBytesOf(const baselines::BruteForce&) { return 0; }
uint64_t IndexBytesOf(const storage::DiskBruteForce&) { return 0; }
template <typename Index>
uint64_t IndexBytesOf(const Index& index) {
  return index.IndexBytes();
}

/// Adapter for memory-resident indexes: Knn/Range(query, x, QueryStats*).
template <typename Index>
class MemoryEngine : public SearchEngine {
 public:
  MemoryEngine(std::shared_ptr<SetDatabase> db, Index index,
               std::string describe, const EngineOptions& options)
      : SearchEngine(options.num_threads),
        db_(std::move(db)),
        index_(std::move(index)),
        describe_(std::move(describe)) {}

  QueryResult Knn(SetView query, size_t k) const override {
    search::QueryStats stats;
    auto hits = index_.Knn(query, k, &stats);
    return FromHits(std::move(hits), stats);
  }

  uint64_t IndexBytes() const override { return IndexBytesOf(index_); }
  std::string Describe() const override { return describe_; }
  const SetDatabase& db() const override { return *db_; }

 protected:
  QueryResult RangeImpl(SetView query, double delta) const override {
    search::QueryStats stats;
    auto hits = index_.Range(query, delta, &stats);
    return FromHits(std::move(hits), stats);
  }

  std::shared_ptr<SetDatabase> db_;
  Index index_;
  std::string describe_;
};

/// Adapter for disk-resident indexes: Knn/Range return DiskQueryResult.
/// Inserts stay unsupported: the on-disk layouts are computed at build
/// time.
template <typename Index>
class DiskEngine : public SearchEngine {
 public:
  DiskEngine(std::shared_ptr<SetDatabase> db, Index index,
             std::string describe, const EngineOptions& options)
      : SearchEngine(options.num_threads),
        db_(std::move(db)),
        index_(std::move(index)),
        describe_(std::move(describe)) {}

  QueryResult Knn(SetView query, size_t k) const override {
    return FromDisk(index_.Knn(query, k));
  }

  uint64_t IndexBytes() const override { return IndexBytesOf(index_); }
  std::string Describe() const override { return describe_; }
  const SetDatabase& db() const override { return *db_; }

 protected:
  QueryResult RangeImpl(SetView query, double delta) const override {
    return FromDisk(index_.Range(query, delta));
  }

  std::shared_ptr<SetDatabase> db_;
  Index index_;
  std::string describe_;
};

/// Disk-resident LES3 persists through the same snapshot format (the
/// GroupContiguous layout is regenerated from the assignment on reload,
/// so only the matrix travels).
class DiskLes3Engine : public DiskEngine<storage::DiskLes3> {
 public:
  DiskLes3Engine(std::shared_ptr<SetDatabase> db, storage::DiskLes3 index,
                 std::string describe, const EngineOptions& options,
                 std::vector<l2p::CascadeModelSnapshot> l2p_models)
      : DiskEngine(std::move(db), std::move(index), std::move(describe),
                   options),
        l2p_models_(std::move(l2p_models)) {}

  Status Save(const std::string& path) const override {
    persist::SnapshotMeta meta;
    meta.backend = "disk_les3";
    meta.measure = index_.measure();
    meta.bitmap_backend = index_.tgm().bitmap_backend();
    return persist::SaveSnapshot(path, meta, *db_, {&index_.tgm()},
                                 {db_.get()}, l2p_models_);
  }

 private:
  std::vector<l2p::CascadeModelSnapshot> l2p_models_;
};

/// A scan has no index to maintain, so mutations are pure database edits
/// (the scan skips tombstoned ids). This keeps brute force usable as the
/// mutation oracle of the differential property suite.
class BruteForceEngine : public MemoryEngine<baselines::BruteForce> {
 public:
  using MemoryEngine::MemoryEngine;

  Result<SetId> Insert(SetRecord set) override {
    return db_->AddSet(std::move(set));
  }

  Status Delete(SetId id) override {
    if (!db_->DeleteSet(id)) {
      return Status::NotFound("no live set with id " + std::to_string(id));
    }
    return Status::OK();
  }

  Status Update(SetId id, SetRecord set) override {
    if (!db_->ReplaceSet(id, std::move(set))) {
      return Status::NotFound("no live set with id " + std::to_string(id));
    }
    return Status::OK();
  }

  std::string Describe() const override {
    return AppendPopulation(describe_, *db_);
  }
};

}  // namespace

std::unique_ptr<SearchEngine> MakeShardedEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options) {
  return shard::ShardedEngine::Build(std::move(db), options);
}

std::unique_ptr<SearchEngine> MakeBruteForceEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options) {
  baselines::BruteForce scan(db.get(), options.measure);
  return std::make_unique<BruteForceEngine>(
      std::move(db), std::move(scan),
      "brute_force(" + DescribeMeasure(options) + ")", options);
}

std::unique_ptr<SearchEngine> MakeInvIdxEngine(std::shared_ptr<SetDatabase> db,
                                               const EngineOptions& options) {
  baselines::InvIdx index(db.get(), InvIdxFrom(options));
  return std::make_unique<MemoryEngine<baselines::InvIdx>>(
      std::move(db), std::move(index),
      "invidx(" + DescribeMeasure(options) + ", knn_delta_step=" +
          std::to_string(options.invidx.knn_delta_step) + ")",
      options);
}

std::unique_ptr<SearchEngine> MakeDualTransEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options) {
  baselines::DualTrans index(db.get(), DualTransFrom(options));
  return std::make_unique<MemoryEngine<baselines::DualTrans>>(
      std::move(db), std::move(index),
      "dualtrans(" + DescribeMeasure(options) +
          ", dims=" + std::to_string(options.dualtrans.dims) + ")",
      options);
}

std::unique_ptr<SearchEngine> MakeDiskLes3Engine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options) {
  uint32_t groups = search::ResolveNumGroups(*db, options.num_groups);
  l2p::CascadeOptions cascade = options.cascade;
  cascade.keep_models = options.keep_l2p_models;
  l2p::CascadeResult cascade_result;
  auto part = search::PartitionWithL2P(
      *db, groups, options.measure, cascade,
      options.keep_l2p_models ? &cascade_result : nullptr);
  storage::DiskLes3 index(db.get(), part.assignment, part.num_groups,
                          options.measure, options.disk,
                          options.bitmap_backend);
  return std::make_unique<DiskLes3Engine>(
      std::move(db), std::move(index),
      "disk_les3(" + DescribeLes3(options.measure, part.num_groups,
                                  options.bitmap_backend,
                                  cascade_result.models.size(),
                                  /*from_snapshot=*/false) +
          ")",
      options, std::move(cascade_result.models));
}

std::unique_ptr<SearchEngine> OpenSnapshotEngine(
    persist::LoadedSnapshot snapshot, const std::string& backend,
    const OpenOptions& options) {
  if (backend != "disk_les3") {
    return shard::ShardedEngine::FromSnapshot(
        std::move(snapshot), ParseBackend(backend).ValueOrDie(), options);
  }
  // A v1 snapshot: its one shard is the whole database.
  EngineOptions engine_options;
  engine_options.num_threads = options.num_threads;
  tgm::Tgm& tgm = snapshot.shards[0].tgm;
  std::string describe =
      "disk_les3(" +
      DescribeLes3(snapshot.meta.measure, tgm.num_groups(),
                   snapshot.meta.bitmap_backend, snapshot.models.size(),
                   /*from_snapshot=*/true) +
      ")";
  storage::DiskLes3 index(snapshot.db.get(), std::move(tgm),
                          snapshot.meta.measure, options.disk);
  return std::make_unique<DiskLes3Engine>(
      std::move(snapshot.db), std::move(index), std::move(describe),
      engine_options, std::move(snapshot.models));
}

std::unique_ptr<SearchEngine> MakeDiskBruteForceEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options) {
  storage::DiskBruteForce index(db.get(), options.measure, options.disk);
  return std::make_unique<DiskEngine<storage::DiskBruteForce>>(
      std::move(db), std::move(index),
      "disk_brute_force(" + DescribeMeasure(options) + ")", options);
}

std::unique_ptr<SearchEngine> MakeDiskInvIdxEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options) {
  storage::DiskInvIdx index(db.get(), InvIdxFrom(options), options.disk);
  return std::make_unique<DiskEngine<storage::DiskInvIdx>>(
      std::move(db), std::move(index),
      "disk_invidx(" + DescribeMeasure(options) + ")", options);
}

std::unique_ptr<SearchEngine> MakeDiskDualTransEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options) {
  storage::DiskDualTrans index(db.get(), DualTransFrom(options),
                               options.disk);
  return std::make_unique<DiskEngine<storage::DiskDualTrans>>(
      std::move(db), std::move(index),
      "disk_dualtrans(" + DescribeMeasure(options) +
          ", dims=" + std::to_string(options.dualtrans.dims) + ")",
      options);
}

}  // namespace internal
}  // namespace api
}  // namespace les3

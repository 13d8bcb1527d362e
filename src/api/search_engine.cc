#include "api/search_engine.h"

#include <cmath>

namespace les3 {
namespace api {

namespace {

QueryResult NonFiniteDeltaResult(double delta) {
  QueryResult result;
  result.status = Status::InvalidArgument(
      "range delta must be finite, got " + std::to_string(delta));
  return result;
}

}  // namespace

ThreadPool& SearchEngine::pool() const {
  // call_once's completed path is one acquire load: scatter calls this per
  // query, so an engine-wide mutex here would serialize concurrent queries.
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(batch_threads_);
  });
  return *pool_;
}

std::vector<QueryResult> SearchEngine::KnnBatch(
    const std::vector<SetRecord>& queries, size_t k) const {
  std::vector<QueryResult> results(queries.size());
  if (queries.empty()) return results;
  pool().ParallelFor(queries.size(),
                     [&](size_t i) { results[i] = Knn(queries[i], k); });
  return results;
}

QueryResult SearchEngine::Range(SetView query, double delta) const {
  if (!std::isfinite(delta)) return NonFiniteDeltaResult(delta);
  return RangeImpl(query, delta);
}

std::vector<QueryResult> SearchEngine::RangeBatch(
    const std::vector<SetRecord>& queries, double delta) const {
  if (!std::isfinite(delta)) {
    return std::vector<QueryResult>(queries.size(),
                                    NonFiniteDeltaResult(delta));
  }
  return RangeBatchImpl(queries, delta);
}

std::vector<QueryResult> SearchEngine::RangeBatchImpl(
    const std::vector<SetRecord>& queries, double delta) const {
  std::vector<QueryResult> results(queries.size());
  if (queries.empty()) return results;
  pool().ParallelFor(queries.size(), [&](size_t i) {
    results[i] = RangeImpl(queries[i], delta);
  });
  return results;
}

Result<SetId> SearchEngine::Insert(SetRecord) {
  return Status::NotSupported(Describe() + " does not support inserts");
}

Status SearchEngine::Delete(SetId) {
  return Status::NotSupported(Describe() + " does not support deletes");
}

Status SearchEngine::Update(SetId, SetRecord) {
  return Status::NotSupported(Describe() + " does not support updates");
}

Result<search::MaintenanceReport> SearchEngine::MaintainNow() {
  return Status::NotSupported(Describe() +
                              " does not support on-demand maintenance");
}

std::shared_ptr<const SetDatabase> SearchEngine::StableDb() const {
  // Non-owning alias of the live database: engines on the default
  // (serialized-mutation) contract need no copy, because the caller must
  // already keep mutations off this engine while reading. The sharded
  // engine overrides this with a locked copy.
  return std::shared_ptr<const SetDatabase>(std::shared_ptr<void>(), &db());
}

Status SearchEngine::Save(const std::string&) const {
  return Status::NotSupported(Describe() + " does not support snapshots");
}

}  // namespace api
}  // namespace les3

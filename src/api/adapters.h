// Per-backend SearchEngine factories. Internal to the api layer — callers
// go through EngineBuilder, which validates options and dispatches here.
// Every factory shares the one owned database it is handed; no backend
// copies the sets.

#ifndef LES3_API_ADAPTERS_H_
#define LES3_API_ADAPTERS_H_

#include <memory>

#include "api/engine_options.h"
#include "api/search_engine.h"
#include "persist/snapshot.h"

namespace les3 {
namespace api {
namespace internal {

std::unique_ptr<SearchEngine> MakeBruteForceEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options);
std::unique_ptr<SearchEngine> MakeInvIdxEngine(std::shared_ptr<SetDatabase> db,
                                               const EngineOptions& options);
std::unique_ptr<SearchEngine> MakeDualTransEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options);
std::unique_ptr<SearchEngine> MakeDiskLes3Engine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options);
std::unique_ptr<SearchEngine> MakeDiskBruteForceEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options);
std::unique_ptr<SearchEngine> MakeDiskInvIdxEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options);
std::unique_ptr<SearchEngine> MakeDiskDualTransEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options);
/// les3 (one shard) and sharded_les3: both are shard::ShardedEngine.
std::unique_ptr<SearchEngine> MakeShardedEngine(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options);

/// Reconstructs a les3, disk_les3, or sharded_les3 engine from a decoded
/// snapshot — zero partitioning/training work. `backend` must be one of
/// those names, already checked against the snapshot version
/// (EngineBuilder::Open resolves the default and the pairing beforehand).
std::unique_ptr<SearchEngine> OpenSnapshotEngine(
    persist::LoadedSnapshot snapshot, const std::string& backend,
    const OpenOptions& options);

}  // namespace internal
}  // namespace api
}  // namespace les3

#endif  // LES3_API_ADAPTERS_H_

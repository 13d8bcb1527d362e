#include "api/engine_builder.h"

#include <utility>

#include "api/adapters.h"

namespace les3 {
namespace api {
namespace {

Status ValidateOptions(const SetDatabase& db, const EngineOptions& options) {
  if (db.empty()) {
    return Status::InvalidArgument("cannot build " + ToString(options.backend) +
                                   " over an empty database");
  }
  // Knobs are only validated for the backend that consumes them
  // (EngineOptions documents irrelevant fields as ignored).
  if ((options.backend == Backend::kInvIdx ||
       options.backend == Backend::kDiskInvIdx) &&
      options.invidx.knn_delta_step <= 0.0) {
    return Status::InvalidArgument("invidx.knn_delta_step must be positive");
  }
  if ((options.backend == Backend::kDualTrans ||
       options.backend == Backend::kDiskDualTrans) &&
      options.dualtrans.dims == 0) {
    return Status::InvalidArgument("dualtrans.dims must be positive");
  }
  if (IsDiskBackend(options.backend) && options.disk.page_bytes == 0) {
    return Status::InvalidArgument("disk.page_bytes must be positive");
  }
  if (options.backend == Backend::kShardedLes3 && options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<SearchEngine>> EngineBuilder::Build(
    SetDatabase db, const EngineOptions& options) {
  return Build(std::make_shared<SetDatabase>(std::move(db)), options);
}

Result<std::unique_ptr<SearchEngine>> EngineBuilder::Build(
    std::shared_ptr<SetDatabase> db, const EngineOptions& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("database must be non-null");
  }
  LES3_RETURN_NOT_OK(ValidateOptions(*db, options));
  switch (options.backend) {
    case Backend::kBruteForce:
      return internal::MakeBruteForceEngine(std::move(db), options);
    case Backend::kInvIdx:
      return internal::MakeInvIdxEngine(std::move(db), options);
    case Backend::kDualTrans:
      return internal::MakeDualTransEngine(std::move(db), options);
    case Backend::kDiskLes3:
      return internal::MakeDiskLes3Engine(std::move(db), options);
    case Backend::kDiskBruteForce:
      return internal::MakeDiskBruteForceEngine(std::move(db), options);
    case Backend::kDiskInvIdx:
      return internal::MakeDiskInvIdxEngine(std::move(db), options);
    case Backend::kDiskDualTrans:
      return internal::MakeDiskDualTransEngine(std::move(db), options);
    case Backend::kLes3:
    case Backend::kShardedLes3:
      return internal::MakeShardedEngine(std::move(db), options);
  }
  return Status::Internal("unhandled backend enum value");
}

Result<std::unique_ptr<SearchEngine>> EngineBuilder::Build(
    SetDatabase db, const std::string& backend, EngineOptions options) {
  return Build(std::make_shared<SetDatabase>(std::move(db)), backend,
               std::move(options));
}

Result<std::unique_ptr<SearchEngine>> EngineBuilder::Build(
    std::shared_ptr<SetDatabase> db, const std::string& backend,
    EngineOptions options) {
  auto parsed = ParseBackend(backend);
  if (!parsed.ok()) return parsed.status();
  options.backend = parsed.value();
  return Build(std::move(db), options);
}

Result<std::unique_ptr<SearchEngine>> EngineBuilder::Open(
    const std::string& path, const OpenOptions& options) {
  auto snapshot = persist::LoadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  // A snapshot reopens as any backend that writes its version: a v1
  // (single-index) file as les3 or disk_les3, memory- or disk-resident; a
  // v2 (sharded) file only as sharded_les3, since its per-shard indexes
  // are not a single-index artifact.
  std::string backend =
      options.backend.empty() ? snapshot.value().meta.backend
                              : options.backend;
  const uint32_t backend_version = persist::SnapshotVersionOf(backend);
  if (backend_version == 0) {
    return Status::InvalidArgument(
        "snapshots hold a les3-family index; cannot open as \"" + backend +
        "\" (use \"les3\", \"disk_les3\", \"sharded_les3\", or leave the "
        "backend empty)");
  }
  if (backend_version != snapshot.value().version) {
    return Status::InvalidArgument(
        "this is a v" + std::to_string(snapshot.value().version) +
        " snapshot written by \"" + snapshot.value().meta.backend +
        "\"; \"" + backend + "\" opens only v" +
        std::to_string(backend_version) + " snapshots");
  }
  if (options.disk.page_bytes == 0) {
    return Status::InvalidArgument("disk.page_bytes must be positive");
  }
  return internal::OpenSnapshotEngine(std::move(snapshot).ValueOrDie(),
                                      backend, options);
}

}  // namespace api
}  // namespace les3

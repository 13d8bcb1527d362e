// Backend selection and construction knobs for the unified SearchEngine
// API. One EngineOptions struct configures every searcher the repo ships —
// LES3, the baselines, and the disk-resident variants — so callers switch
// backend by changing one field (or one string, via ParseBackend).

#ifndef LES3_API_ENGINE_OPTIONS_H_
#define LES3_API_ENGINE_OPTIONS_H_

#include <string>
#include <vector>

#include "baselines/dualtrans.h"
#include "baselines/invidx.h"
#include "bitmap/bitmap_column.h"
#include "core/similarity.h"
#include "l2p/cascade.h"
#include "storage/disk.h"
#include "util/status.h"

namespace les3 {
namespace api {

/// Every searcher constructible through EngineBuilder. The memory-resident
/// backends run entirely in RAM; the disk_ variants run the same
/// algorithms while charging data accesses to the HDD cost model of
/// storage/disk.h. kShardedLes3 hash-partitions the database across
/// num_shards independent LES3 indexes (shard/sharded_engine.h) for
/// parallel build and insert-concurrent serving; kLes3 is the same engine
/// with one shard, saved in the single-index snapshot format.
enum class Backend {
  kLes3,
  kBruteForce,
  kInvIdx,
  kDualTrans,
  kDiskLes3,
  kDiskBruteForce,
  kDiskInvIdx,
  kDiskDualTrans,
  kShardedLes3,
};

/// Canonical backend name ("les3", "brute_force", "invidx", "dualtrans",
/// "disk_les3", "disk_brute_force", "disk_invidx", "disk_dualtrans",
/// "sharded_les3").
std::string ToString(Backend backend);

/// Parses a canonical backend name; InvalidArgument on anything else.
Result<Backend> ParseBackend(const std::string& name);

/// All canonical backend names, in enum order.
const std::vector<std::string>& BackendNames();

/// Whether queries on this backend report DiskIoStats.
bool IsDiskBackend(Backend backend);

/// \brief Construction knobs for any backend.
///
/// Fields irrelevant to the chosen backend are ignored; the `measure`
/// field always wins over the measure embedded in the per-backend option
/// structs.
struct EngineOptions {
  Backend backend = Backend::kLes3;

  /// Similarity measure shared by index construction and queries.
  SimilarityMeasure measure = SimilarityMeasure::kJaccard;

  /// LES3 group count; 0 means the paper's heuristic max(16, |D| / 200).
  /// For sharded_les3 this is the PER-SHARD count (0 = heuristic on the
  /// shard's size).
  uint32_t num_groups = 0;

  /// Shard count (sharded_les3 only; les3 is always one shard): the
  /// database is hash-partitioned by set id across this many shards, each
  /// with its own independently and concurrently built LES3 index. Must be
  /// >= 1; clamped to |D| so no shard starts empty. See docs/sharding.md.
  uint32_t num_shards = 1;

  /// TGM column representation (les3 / disk_les3): compressed Roaring
  /// containers (default) or flat BitVector rows. Reported by Describe()
  /// and reflected in IndexBytes().
  bitmap::BitmapBackend bitmap_backend = bitmap::BitmapBackend::kRoaring;

  /// L2P training knobs (les3 / disk_les3); target_groups and measure are
  /// overridden from `num_groups` and `measure`.
  l2p::CascadeOptions cascade;

  /// Retain the trained L2P cascade weights in the engine so Save()
  /// persists them (les3 / disk_les3). Costs memory proportional to the
  /// model count; queries and inserts never read them (Section 6 routes
  /// inserts through the TGM), so this is purely about making the learned
  /// partitioner part of the snapshot artifact.
  bool keep_l2p_models = false;

  /// Inverted-index knobs (invidx / disk_invidx).
  baselines::InvIdxOptions invidx;

  /// Transformation-tree knobs (dualtrans / disk_dualtrans).
  baselines::DualTransOptions dualtrans;

  /// HDD cost model (disk_* backends).
  storage::DiskOptions disk;

  /// Worker threads for KnnBatch / RangeBatch; 0 = hardware concurrency.
  size_t num_threads = 0;
};

/// \brief Knobs for EngineBuilder::Open — reloading a saved snapshot.
///
/// Opening bypasses partitioning and training entirely: the engine is
/// reconstructed from the persisted assignment and TGM columns, so only
/// runtime knobs (not construction knobs) apply here.
struct OpenOptions {
  /// Backend to reopen as: "" uses the backend recorded in the snapshot;
  /// "les3" / "disk_les3" reopen a single-index (v1) snapshot memory- or
  /// disk-resident (the two share one snapshot content); "sharded_les3"
  /// reopens a sharded (v2) snapshot. Anything else — including mixing a
  /// sharded snapshot with a single-index backend or vice versa — is
  /// InvalidArgument.
  std::string backend;

  /// HDD cost model when reopening as disk_les3.
  storage::DiskOptions disk;

  /// Worker threads for KnnBatch / RangeBatch; 0 = hardware concurrency.
  size_t num_threads = 0;
};

}  // namespace api
}  // namespace les3

#endif  // LES3_API_ENGINE_OPTIONS_H_

// One-call index construction: database in, LES3 index out, with the
// paper's defaults (L2P partitioning over PTR, n ≈ 0.5% |D| groups).

#ifndef LES3_SEARCH_BUILDER_H_
#define LES3_SEARCH_BUILDER_H_

#include "l2p/cascade.h"
#include "partition/partitioner.h"
#include "search/les3_index.h"
#include "util/status.h"

namespace les3 {
namespace search {

/// The paper's group-count heuristic: `requested` if non-zero, else
/// max(16, |D| / 200); always clamped to |D|.
uint32_t ResolveNumGroups(const SetDatabase& db, uint32_t requested);

/// Runs L2P over `db` with `cascade` knobs aligned to the resolved group
/// count and measure (shared by BuildLes3Index and the api/ adapters).
/// When `out_cascade` is non-null it receives the full cascade result —
/// including the trained model snapshots if cascade.keep_models is set —
/// so the caller can persist the learned partitioner.
partition::PartitionResult PartitionWithL2P(
    const SetDatabase& db, uint32_t groups, SimilarityMeasure measure,
    l2p::CascadeOptions cascade, l2p::CascadeResult* out_cascade = nullptr);

struct Les3BuildOptions {
  SimilarityMeasure measure = SimilarityMeasure::kJaccard;
  /// 0 means the paper's heuristic: max(16, |D| / 200) groups.
  uint32_t num_groups = 0;
  /// Training knobs; target_groups is overridden by num_groups.
  l2p::CascadeOptions cascade;
  /// Storage representation of the TGM columns.
  bitmap::BitmapBackend bitmap_backend = bitmap::BitmapBackend::kRoaring;
};

/// \brief The one L2P-partition-then-index build path.
///
/// Runs L2P over `*db` and constructs the index over the shared database.
/// Every shard of the sharded engine (shard/sharded_engine.h, which is
/// also the one-shard `les3` backend) builds through this function — a
/// shard is just a database slice.
/// When `out_cascade` is non-null it receives the cascade result
/// (including trained model snapshots if options.cascade.keep_models).
/// `db` must be non-null and non-empty.
Les3Index BuildIndexOverShared(std::shared_ptr<SetDatabase> db,
                               const Les3BuildOptions& options,
                               l2p::CascadeResult* out_cascade = nullptr);

/// \brief Partitions `db` with L2P and builds the search index.
///
/// Fails with InvalidArgument on an empty database.
Result<Les3Index> BuildLes3Index(SetDatabase db,
                                 const Les3BuildOptions& options = {});

}  // namespace search
}  // namespace les3

#endif  // LES3_SEARCH_BUILDER_H_

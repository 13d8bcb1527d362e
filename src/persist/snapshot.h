// Versioned index snapshots: save a built LES3 index to one file and
// reload it without any partitioning or training work.
//
// LES3's construction cost is dominated by learning the partitioning
// (paper Figure 7), so the learned index must be a deployable artifact: a
// process restart reopens the snapshot in milliseconds instead of
// retraining for minutes. The file carries everything a les3-family engine
// needs — the set database, the partition assignment, the TGM bitmap
// columns in their exact container state (either bitmap backend), the
// similarity measure, and optionally the trained L2P cascade weights — in
// a chunked, checksummed, versioned binary format specified in
// docs/snapshot_format.md.
//
// Robustness contract: LoadSnapshot never trusts the input. Every read is
// bounds-checked (persist/bytes.h), every chunk payload is CRC-verified
// before parsing, and every structural invariant the query kernels rely on
// (group ids < num_groups, sorted tokens, bitmap container shape) is
// re-validated — truncation, bit flips, bad headers, and oversized chunk
// lengths all come back as a Status, never a crash or an out-of-bounds
// access. The corruption tests run this promise under ASan+UBSan.
//
// Callers normally go through the api layer (SearchEngine::Save /
// EngineBuilder::Open); this header is the format implementation.

#ifndef LES3_PERSIST_SNAPSHOT_H_
#define LES3_PERSIST_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "bitmap/bitmap_column.h"
#include "core/database.h"
#include "persist/bytes.h"
#include "core/similarity.h"
#include "l2p/cascade.h"
#include "tgm/tgm.h"
#include "util/status.h"

namespace les3 {
namespace persist {

/// File magic: the first 8 bytes of every snapshot.
inline constexpr char kSnapshotMagic[8] = {'L', 'E', 'S', '3',
                                           'S', 'N', 'A', 'P'};

/// Single-index format version. Bump on ANY layout change; readers reject
/// files written by an unknown version with an explicit error (no silent
/// best-effort parsing of future formats).
inline constexpr uint32_t kSnapshotVersion = 1;

/// Sharded format version (shard/sharded_engine.h): same chunk framing,
/// but the META chunk carries a shard count and the PART/TGMC pair repeats
/// once per shard, in shard order. A version 1 file is the one-shard case
/// of this layout without the count (plus an optional L2P chunk), and one
/// decoder reads both.
inline constexpr uint32_t kSnapshotVersionSharded = 2;

/// Highest version this build reads.
inline constexpr uint32_t kMaxSnapshotVersion = kSnapshotVersionSharded;

/// Header flag bit: the snapshot may contain tombstoned (deleted) ids —
/// kInvalidGroup sentinels in PART chunks and zero-token entries in the
/// DB chunk (docs/snapshot_format.md, "Tombstones"). The deliberate
/// format choice for mutability: version numbers keep meaning layout
/// (1 = single index, 2 = sharded), deletions set this orthogonal flag,
/// and a database that never saw a delete produces a byte-identical
/// flagless file (the golden test holds the writer to that). Builds
/// predating the flag reject flagged files outright ("unsupported
/// snapshot flags") instead of resurrecting tombstones.
inline constexpr uint32_t kSnapshotFlagTombstones = 1;

/// Chunk identifiers (docs/snapshot_format.md).
enum class ChunkType : uint32_t {
  kEnd = 0,         // terminator, empty payload, required last
  kMeta = 1,        // backend name, measure, bitmap backend, shape
  kDatabase = 2,    // the set database
  kPartition = 3,   // num_groups + per-set assignment
  kTgmColumns = 4,  // TGM bitmap columns, exact container state
  kL2pModels = 5,   // optional: trained cascade MLP weights
};

/// \brief Engine-level facts stored in the META chunk.
struct SnapshotMeta {
  std::string backend;  // "les3", "disk_les3", or "sharded_les3"
  SimilarityMeasure measure = SimilarityMeasure::kJaccard;
  bitmap::BitmapBackend bitmap_backend = bitmap::BitmapBackend::kRoaring;
  uint32_t num_groups = 0;   // v2: summed over all shards
  uint64_t num_sets = 0;
  uint32_t num_tokens = 0;
  uint32_t num_shards = 1;   // encoded only in v2 files; 1 for v1
};

/// One shard of a snapshot: its TGM over the shard's local set ids, ready
/// to query (the PART chunk lives on as tgm.group_assignment()). Which
/// global ids belong to the shard is not stored — it is the deterministic
/// hash split (id mod num_shards), re-derived from the DB chunk on load. A
/// v1 file is the one-shard case, whose local ids are the global ids.
struct ShardSnapshot {
  tgm::Tgm tgm;
};

/// \brief Everything LoadSnapshot reconstructs; feeds the api layer's
/// snapshot engines directly (no partitioning or training involved).
struct LoadedSnapshot {
  uint32_t version = kSnapshotVersion;
  SnapshotMeta meta;
  std::shared_ptr<SetDatabase> db;
  /// One entry per shard, in shard order; exactly one for a v1 file.
  std::vector<ShardSnapshot> shards;
  /// Trained cascade weights; v1 only, empty if not persisted.
  std::vector<l2p::CascadeModelSnapshot> models;
};

/// The snapshot version a backend writes and reopens: 1 for "les3" and
/// "disk_les3" (single index), 2 for "sharded_les3", 0 for any backend
/// that has no snapshot. The encoder, the decoder's META check, and the
/// api layer (EngineBuilder::Open, the engines' Save and Describe) all
/// read this one mapping.
uint32_t SnapshotVersionOf(const std::string& backend);

/// Serializes one snapshot into `out` (exposed separately from the file
/// writer so tests can inspect and corrupt the byte stream directly): the
/// global database plus one PART/TGMC pair per shard, in shard order.
/// `shard_tgms[s]` is shard s's matrix over its local set ids and
/// `shard_dbs[s]` the local slice it indexes (needed for save-time column
/// compaction; with one shard the slice is the global database).
/// `meta.backend` picks the version (SnapshotVersionOf): v2 writes the
/// shard count into META; v1 takes exactly one shard and writes `models`
/// as the L2P chunk when non-empty (v2 never writes one). The shape fields
/// (num_sets / num_tokens / num_groups / num_shards) are filled from `db`
/// and the shard matrices; callers set backend / measure / bitmap_backend.
void EncodeSnapshot(const SnapshotMeta& meta, const SetDatabase& db,
                    const std::vector<const tgm::Tgm*>& shard_tgms,
                    const std::vector<const SetDatabase*>& shard_dbs,
                    const std::vector<l2p::CascadeModelSnapshot>& models,
                    ByteWriter* out);

/// Parses and fully validates a snapshot byte buffer of either version:
/// exactly META.num_shards PART-then-TGMC pairs (one in v1), an L2P chunk
/// only in v1, and a META backend whose SnapshotVersionOf is the header
/// version.
Result<LoadedSnapshot> DecodeSnapshot(const void* data, size_t size);

/// EncodeSnapshot + crash-safe file write (WriteFileBytes: temp file,
/// fsync, rename over `path`, directory fsync). On failure the previous
/// file at `path` is untouched.
Status SaveSnapshot(const std::string& path, const SnapshotMeta& meta,
                    const SetDatabase& db,
                    const std::vector<const tgm::Tgm*>& shard_tgms,
                    const std::vector<const SetDatabase*>& shard_dbs,
                    const std::vector<l2p::CascadeModelSnapshot>& models);

/// Reads the file and decodes it; all failure modes return a Status.
Result<LoadedSnapshot> LoadSnapshot(const std::string& path);

/// Reads a whole file into `out` (shared by LoadSnapshot and the tests
/// that corrupt snapshot bytes). IOError on open/read failure.
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

/// Writes `bytes` to `path` crash-safely: the bytes go to `path.tmp`,
/// which is synced and then renamed over `path`, and the directory is
/// synced. On any failure the previous file at `path` is untouched, a temp
/// file this call created is removed, and the result is IOError.
Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes);

}  // namespace persist
}  // namespace les3

#endif  // LES3_PERSIST_SNAPSHOT_H_

#include "persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace les3 {
namespace persist {

namespace {

// Hard ceilings on claimed element counts, checked against the actual
// remaining payload bytes before any allocation: a corrupted count can
// never make the loader allocate more than the (already CRC-verified)
// chunk could possibly hold.
constexpr size_t kMaxBackendNameLen = 64;

void BeginChunk(ChunkType type, ByteWriter* out, size_t* payload_start) {
  out->WriteU32(static_cast<uint32_t>(type));
  out->WriteU64(0);  // payload length, patched in EndChunk
  *payload_start = out->size();
}

void EndChunk(ByteWriter* out, size_t payload_start) {
  size_t payload_len = out->size() - payload_start;
  // Patch the u64 length (low word first; snapshots stay far below 4 GiB
  // per chunk but the format field is 64-bit).
  out->PatchU32(payload_start - 8, static_cast<uint32_t>(payload_len));
  out->PatchU32(payload_start - 4, static_cast<uint32_t>(
                                       static_cast<uint64_t>(payload_len) >>
                                       32));
  out->WriteU32(
      Crc32(out->data().data() + payload_start, payload_len));
}

void EncodeMeta(const SnapshotMeta& meta, uint32_t version, ByteWriter* out) {
  out->WriteString(meta.backend);
  out->WriteU8(static_cast<uint8_t>(meta.measure));
  out->WriteU8(static_cast<uint8_t>(meta.bitmap_backend));
  out->WriteU32(meta.num_groups);
  out->WriteU64(meta.num_sets);
  out->WriteU32(meta.num_tokens);
  // The shard count is a v2 addition; v1 META stays byte-identical to what
  // older builds wrote (the golden test holds the writer to that).
  if (version >= kSnapshotVersionSharded) out->WriteU32(meta.num_shards);
}

void EncodeDatabase(const SetDatabase& db, ByteWriter* out) {
  out->WriteU32(db.num_tokens());
  out->WriteU32(static_cast<uint32_t>(db.size()));
  // Tombstoned ids serialize as zero-token entries (their views are
  // empty), so arena garbage is physically dropped here — this IS the
  // database half of save-time compaction. Which zero-token entries are
  // tombstones is recorded by the PART chunk's kInvalidGroup sentinels.
  for (SetId i = 0; i < db.size(); ++i) {
    SetView s = db.set(i);
    out->WriteU32(static_cast<uint32_t>(s.size()));
    for (TokenId t : s) out->WriteU32(t);
  }
}

/// Set sizes of the slice shard `s`'s Tgm covers, read off the decoded DB
/// chunk: every S-th set starting at `s` (all sets when S is 1).
/// Tgm::Deserialize uses them to re-derive the in-memory (size, id) member
/// order — never persisted in the format.
std::vector<uint32_t> SliceSetSizes(const SetDatabase& db, uint32_t s,
                                    uint32_t num_shards) {
  std::vector<uint32_t> sizes;
  sizes.reserve(db.size() / num_shards + 1);
  for (uint64_t gid = s; gid < db.size(); gid += num_shards) {
    sizes.push_back(static_cast<uint32_t>(
        db.set_size(static_cast<SetId>(gid))));
  }
  return sizes;
}

void EncodePartition(const tgm::Tgm& tgm, ByteWriter* out) {
  out->WriteU32(tgm.num_groups());
  const auto& assignment = tgm.group_assignment();
  out->WriteU32(static_cast<uint32_t>(assignment.size()));
  for (GroupId g : assignment) out->WriteU32(g);
}

void EncodeModels(const std::vector<l2p::CascadeModelSnapshot>& models,
                  ByteWriter* out) {
  out->WriteU32(static_cast<uint32_t>(models.size()));
  for (const auto& m : models) {
    out->WriteU32(m.level);
    out->WriteU32(m.group);
    out->WriteF32(m.threshold);
    out->WriteU8(m.routed_by_threshold ? 1 : 0);
    out->WriteU32(static_cast<uint32_t>(m.layer_sizes.size()));
    for (uint32_t s : m.layer_sizes) out->WriteU32(s);
    out->WriteU32(static_cast<uint32_t>(m.params.size()));
    for (float p : m.params) out->WriteF32(p);
  }
}

Status DecodeMeta(ByteReader* reader, uint32_t version, SnapshotMeta* meta) {
  LES3_RETURN_NOT_OK(reader->ReadString(&meta->backend, kMaxBackendNameLen));
  uint8_t measure = 0, bitmap_backend = 0;
  LES3_RETURN_NOT_OK(reader->ReadU8(&measure));
  LES3_RETURN_NOT_OK(reader->ReadU8(&bitmap_backend));
  if (measure > static_cast<uint8_t>(SimilarityMeasure::kContainment)) {
    return Status::InvalidArgument("unknown similarity measure tag " +
                                   std::to_string(measure));
  }
  if (bitmap_backend >
      static_cast<uint8_t>(bitmap::BitmapBackend::kBitVector)) {
    return Status::InvalidArgument("unknown bitmap backend tag " +
                                   std::to_string(bitmap_backend));
  }
  meta->measure = static_cast<SimilarityMeasure>(measure);
  meta->bitmap_backend = static_cast<bitmap::BitmapBackend>(bitmap_backend);
  LES3_RETURN_NOT_OK(reader->ReadU32(&meta->num_groups));
  LES3_RETURN_NOT_OK(reader->ReadU64(&meta->num_sets));
  LES3_RETURN_NOT_OK(reader->ReadU32(&meta->num_tokens));
  if (version >= kSnapshotVersionSharded) {
    LES3_RETURN_NOT_OK(reader->ReadU32(&meta->num_shards));
    if (meta->num_shards == 0) {
      return Status::InvalidArgument("sharded snapshot declares 0 shards");
    }
  }
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("trailing bytes in META chunk");
  }
  return Status::OK();
}

Status DecodeDatabase(ByteReader* reader, SetDatabase* db) {
  uint32_t num_tokens = 0, num_sets = 0;
  LES3_RETURN_NOT_OK(reader->ReadU32(&num_tokens));
  LES3_RETURN_NOT_OK(reader->ReadU32(&num_sets));
  // Each set costs at least 4 bytes (its length field).
  if (num_sets > reader->remaining() / 4) {
    return Status::OutOfRange("set count " + std::to_string(num_sets) +
                              " exceeds what the chunk can hold");
  }
  *db = SetDatabase(num_tokens);
  for (uint32_t i = 0; i < num_sets; ++i) {
    uint32_t len = 0;
    LES3_RETURN_NOT_OK(reader->ReadU32(&len));
    if (len > reader->remaining() / 4) {
      return Status::OutOfRange("set " + std::to_string(i) + " length " +
                                std::to_string(len) +
                                " exceeds what the chunk can hold");
    }
    std::vector<TokenId> tokens(len);
    for (uint32_t j = 0; j < len; ++j) {
      LES3_RETURN_NOT_OK(reader->ReadU32(&tokens[j]));
      // Sorted storage is the SetRecord invariant every similarity kernel
      // assumes; token ids must also stay inside the declared universe.
      if (j > 0 && tokens[j] < tokens[j - 1]) {
        return Status::InvalidArgument("set " + std::to_string(i) +
                                       " tokens not sorted ascending");
      }
      if (tokens[j] >= num_tokens) {
        return Status::OutOfRange("set " + std::to_string(i) + " token " +
                                  std::to_string(tokens[j]) +
                                  " outside the declared universe of " +
                                  std::to_string(num_tokens));
      }
    }
    db->AddSet(SetRecord::FromSortedTokens(std::move(tokens)));
  }
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("trailing bytes in DB chunk");
  }
  return Status::OK();
}

Status DecodePartition(ByteReader* reader, bool allow_tombstones,
                       uint32_t* num_groups,
                       std::vector<GroupId>* assignment) {
  uint32_t num_sets = 0;
  LES3_RETURN_NOT_OK(reader->ReadU32(num_groups));
  LES3_RETURN_NOT_OK(reader->ReadU32(&num_sets));
  if (num_sets > reader->remaining() / 4) {
    return Status::OutOfRange("assignment count " + std::to_string(num_sets) +
                              " exceeds what the chunk can hold");
  }
  assignment->resize(num_sets);
  for (uint32_t i = 0; i < num_sets; ++i) {
    LES3_RETURN_NOT_OK(reader->ReadU32(&(*assignment)[i]));
    // A kInvalidGroup sentinel marks a tombstoned id and is only legal
    // when the header flag announced tombstones; everything else is
    // range-checked (against num_groups) in Tgm::Deserialize.
    if ((*assignment)[i] == kInvalidGroup && !allow_tombstones) {
      return Status::InvalidArgument(
          "PART entry " + std::to_string(i) +
          " is a tombstone sentinel but the header tombstone flag is unset");
    }
  }
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("trailing bytes in PART chunk");
  }
  return Status::OK();
}

Status DecodeModels(ByteReader* reader,
                    std::vector<l2p::CascadeModelSnapshot>* models) {
  uint32_t num_models = 0;
  LES3_RETURN_NOT_OK(reader->ReadU32(&num_models));
  if (num_models > reader->remaining() / 16) {
    return Status::OutOfRange("model count " + std::to_string(num_models) +
                              " exceeds what the chunk can hold");
  }
  models->resize(num_models);
  for (auto& m : *models) {
    LES3_RETURN_NOT_OK(reader->ReadU32(&m.level));
    LES3_RETURN_NOT_OK(reader->ReadU32(&m.group));
    LES3_RETURN_NOT_OK(reader->ReadF32(&m.threshold));
    uint8_t routed = 0;
    LES3_RETURN_NOT_OK(reader->ReadU8(&routed));
    if (routed > 1) {
      return Status::InvalidArgument("model routing flag must be 0 or 1");
    }
    m.routed_by_threshold = routed != 0;
    uint32_t num_layers = 0;
    LES3_RETURN_NOT_OK(reader->ReadU32(&num_layers));
    if (num_layers < 2 || num_layers > reader->remaining() / 4) {
      return Status::InvalidArgument("model layer count " +
                                     std::to_string(num_layers) +
                                     " invalid");
    }
    m.layer_sizes.resize(num_layers);
    uint64_t expected_params = 0;
    for (uint32_t l = 0; l < num_layers; ++l) {
      LES3_RETURN_NOT_OK(reader->ReadU32(&m.layer_sizes[l]));
      if (m.layer_sizes[l] == 0 || m.layer_sizes[l] > (1u << 20)) {
        return Status::InvalidArgument("model layer size " +
                                       std::to_string(m.layer_sizes[l]) +
                                       " invalid");
      }
      if (l > 0) {
        // Weights (in x out) plus biases (out) per layer transition.
        expected_params += static_cast<uint64_t>(m.layer_sizes[l - 1] + 1) *
                           m.layer_sizes[l];
      }
    }
    uint32_t num_params = 0;
    LES3_RETURN_NOT_OK(reader->ReadU32(&num_params));
    if (num_params != expected_params ||
        num_params > reader->remaining() / 4) {
      return Status::InvalidArgument(
          "model parameter count " + std::to_string(num_params) +
          " does not match its layer sizes");
    }
    m.params.resize(num_params);
    for (uint32_t p = 0; p < num_params; ++p) {
      LES3_RETURN_NOT_OK(reader->ReadF32(&m.params[p]));
    }
  }
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("trailing bytes in L2P chunk");
  }
  return Status::OK();
}

/// Reads one chunk's framing — type, length (validated against the
/// remaining file), payload span, and CRC — so every chunk speaks the same
/// robustness contract.
Status NextChunk(ByteReader* reader, uint32_t* type, const uint8_t** payload,
                 uint64_t* payload_len) {
  if (reader->AtEnd()) {
    return Status::InvalidArgument(
        "snapshot ends without an END chunk (truncated?)");
  }
  LES3_RETURN_NOT_OK(reader->ReadU32(type));
  LES3_RETURN_NOT_OK(reader->ReadU64(payload_len));
  // The payload plus its 4-byte checksum must fit in what remains; an
  // oversized length field is rejected here, before any use.
  if (*payload_len > reader->remaining() ||
      reader->remaining() - *payload_len < 4) {
    return Status::OutOfRange("chunk length " + std::to_string(*payload_len) +
                              " exceeds the file size");
  }
  LES3_RETURN_NOT_OK(reader->ReadSpan(payload, *payload_len));
  uint32_t stored_crc = 0;
  LES3_RETURN_NOT_OK(reader->ReadU32(&stored_crc));
  if (Crc32(*payload, *payload_len) != stored_crc) {
    return Status::IOError("checksum mismatch in chunk type " +
                           std::to_string(*type) + " (corrupted snapshot)");
  }
  return Status::OK();
}

/// Global set ids of shard `s` under the id-mod-S hash split of a database
/// of `num_sets` sets: s, s+S, s+2S, ... — so the shard holds exactly
/// ceil((num_sets - s) / S) sets.
uint64_t ShardLocalCount(uint64_t num_sets, uint32_t s, uint32_t num_shards) {
  if (s >= num_sets) return 0;
  return (num_sets - s + num_shards - 1) / num_shards;
}

}  // namespace

uint32_t SnapshotVersionOf(const std::string& backend) {
  if (backend == "les3" || backend == "disk_les3") return kSnapshotVersion;
  if (backend == "sharded_les3") return kSnapshotVersionSharded;
  return 0;
}

void EncodeSnapshot(const SnapshotMeta& meta, const SetDatabase& db,
                    const std::vector<const tgm::Tgm*>& shard_tgms,
                    const std::vector<const SetDatabase*>& shard_dbs,
                    const std::vector<l2p::CascadeModelSnapshot>& models,
                    ByteWriter* out) {
  const uint32_t version = SnapshotVersionOf(meta.backend);
  LES3_CHECK_NE(version, 0u);
  LES3_CHECK_EQ(shard_tgms.size(), shard_dbs.size());
  LES3_CHECK(version == kSnapshotVersionSharded || shard_tgms.size() == 1);
  out->WriteBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  out->WriteU32(version);
  out->WriteU32(db.num_deleted() > 0 ? kSnapshotFlagTombstones : 0u);

  SnapshotMeta filled = meta;
  filled.num_sets = db.size();
  filled.num_tokens = db.num_tokens();
  filled.num_shards = static_cast<uint32_t>(shard_tgms.size());
  filled.num_groups = 0;
  for (const tgm::Tgm* tgm : shard_tgms) filled.num_groups += tgm->num_groups();

  size_t start = 0;
  BeginChunk(ChunkType::kMeta, out, &start);
  EncodeMeta(filled, version, out);
  EndChunk(out, start);

  BeginChunk(ChunkType::kDatabase, out, &start);
  EncodeDatabase(db, out);
  EndChunk(out, start);

  for (size_t s = 0; s < shard_tgms.size(); ++s) {
    const tgm::Tgm* tgm = shard_tgms[s];
    BeginChunk(ChunkType::kPartition, out, &start);
    EncodePartition(*tgm, out);
    EndChunk(out, start);

    BeginChunk(ChunkType::kTgmColumns, out, &start);
    // Save-time column compaction: once mutations have left stale bits or
    // tombstones behind, write exact recomputed columns (against the
    // shard's own local slice; the compactor walks local member ids)
    // instead of the live container state. A never-mutated index keeps
    // the exact-container path (and stays byte-identical to what older
    // builds wrote).
    const SetDatabase& local = *shard_dbs[s];
    if (tgm->TotalDirt() > 0 || local.num_deleted() > 0) {
      tgm->SerializeCompactedColumns(local, out);
    } else {
      tgm->SerializeColumns(out);
    }
    EndChunk(out, start);
  }

  if (version == kSnapshotVersion && !models.empty()) {
    BeginChunk(ChunkType::kL2pModels, out, &start);
    EncodeModels(models, out);
    EndChunk(out, start);
  }

  BeginChunk(ChunkType::kEnd, out, &start);
  EndChunk(out, start);
}

Result<LoadedSnapshot> DecodeSnapshot(const void* data, size_t size) {
  ByteReader reader(data, size);
  char magic[sizeof(kSnapshotMagic)];
  LES3_RETURN_NOT_OK(reader.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(
        "not a LES3 snapshot (bad magic; expected \"LES3SNAP\")");
  }
  uint32_t version = 0, flags = 0;
  LES3_RETURN_NOT_OK(reader.ReadU32(&version));
  LES3_RETURN_NOT_OK(reader.ReadU32(&flags));
  if (version < kSnapshotVersion || version > kMaxSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads versions " + std::to_string(kSnapshotVersion) +
        ".." + std::to_string(kMaxSnapshotVersion) +
        "; re-save the index with a matching build)");
  }
  if ((flags & ~kSnapshotFlagTombstones) != 0) {
    return Status::InvalidArgument("unsupported snapshot flags");
  }
  const bool allow_tombstones = (flags & kSnapshotFlagTombstones) != 0;

  LoadedSnapshot snapshot;
  snapshot.version = version;
  bool have_meta = false, have_db = false, have_models = false,
       have_end = false;
  SetDatabase db;
  // Every shard is one PART chunk immediately followed by its TGMC chunk
  // (a v1 file is the one-shard case). Column payloads are only stashed
  // here (spans into the caller's buffer) — decoding waits until after the
  // loop, when the DB chunk is certainly available to supply the set sizes
  // the member order is re-derived from.
  struct PendingShard {
    std::vector<GroupId> assignment;
    uint32_t num_groups = 0;
    const uint8_t* columns_payload = nullptr;
    uint64_t columns_len = 0;
  };
  std::vector<PendingShard> pending_shards;
  bool have_pending_part = false;

  while (!have_end) {
    uint32_t type = 0;
    uint64_t payload_len = 0;
    const uint8_t* payload = nullptr;
    LES3_RETURN_NOT_OK(NextChunk(&reader, &type, &payload, &payload_len));
    ByteReader chunk(payload, payload_len);
    auto mark_once = [&](bool* seen, const char* name) -> Status {
      if (*seen) {
        return Status::InvalidArgument(std::string("duplicate ") + name +
                                       " chunk");
      }
      *seen = true;
      return Status::OK();
    };
    switch (static_cast<ChunkType>(type)) {
      case ChunkType::kMeta:
        LES3_RETURN_NOT_OK(mark_once(&have_meta, "META"));
        LES3_RETURN_NOT_OK(DecodeMeta(&chunk, version, &snapshot.meta));
        break;
      case ChunkType::kDatabase:
        LES3_RETURN_NOT_OK(mark_once(&have_db, "DB"));
        LES3_RETURN_NOT_OK(DecodeDatabase(&chunk, &db));
        break;
      case ChunkType::kPartition:
        if (have_pending_part) {
          return Status::InvalidArgument(
              "PART chunk not followed by its shard's TGMC chunk");
        }
        pending_shards.emplace_back();
        LES3_RETURN_NOT_OK(DecodePartition(
            &chunk, allow_tombstones, &pending_shards.back().num_groups,
            &pending_shards.back().assignment));
        have_pending_part = true;
        break;
      case ChunkType::kTgmColumns:
        if (!have_pending_part) {
          return Status::InvalidArgument(
              "TGMC chunk without a preceding PART chunk");
        }
        pending_shards.back().columns_payload = payload;
        pending_shards.back().columns_len = payload_len;
        have_pending_part = false;
        break;
      case ChunkType::kL2pModels:
        // Only the single-index format carries a trained cascade (each
        // shard would need its own); a v2 file carrying one is malformed.
        if (version != kSnapshotVersion) {
          return Status::InvalidArgument(
              "sharded snapshots do not carry L2P chunks");
        }
        LES3_RETURN_NOT_OK(mark_once(&have_models, "L2P"));
        LES3_RETURN_NOT_OK(DecodeModels(&chunk, &snapshot.models));
        break;
      case ChunkType::kEnd:
        if (payload_len != 0) {
          return Status::InvalidArgument("END chunk must be empty");
        }
        have_end = true;
        break;
      default:
        // Unknown chunks are an error, not skippable: format changes bump
        // the version, so an unknown type here is corruption.
        return Status::InvalidArgument("unknown chunk type " +
                                       std::to_string(type));
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after the END chunk");
  }
  if (have_pending_part) {
    return Status::InvalidArgument(
        "PART chunk not followed by its shard's TGMC chunk");
  }
  if (!have_meta || !have_db || pending_shards.empty()) {
    return Status::InvalidArgument(
        "snapshot is missing a required chunk (META, DB, PART, TGMC)");
  }

  // Cross-chunk consistency: the backend against the header version, META
  // against the DB chunk, the shard count against the PART/TGMC pairs (a
  // v1 META has no count: it is 1), and every shard's shape against the
  // deterministic id-mod-S split the engine will re-derive on open. META's
  // shape fields are redundant with the payload chunks by construction; a
  // disagreement means the file was stitched together or corrupted in a
  // way the per-chunk CRCs cannot see.
  if (SnapshotVersionOf(snapshot.meta.backend) != version) {
    return Status::InvalidArgument(
        "snapshot backend \"" + snapshot.meta.backend +
        "\" does not write version " + std::to_string(version) + " snapshots");
  }
  if (db.empty()) {
    return Status::InvalidArgument("snapshot contains an empty database");
  }
  if (snapshot.meta.num_sets != db.size() ||
      snapshot.meta.num_tokens != db.num_tokens()) {
    return Status::InvalidArgument(
        "META shape disagrees with the DB chunk");
  }
  const uint32_t num_shards = snapshot.meta.num_shards;
  if (num_shards != pending_shards.size()) {
    return Status::InvalidArgument(
        "META declares " + std::to_string(num_shards) +
        " shards but the file holds " +
        std::to_string(pending_shards.size()) + " PART/TGMC pairs");
  }
  uint64_t total_groups = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    PendingShard& pending = pending_shards[s];
    uint64_t expected = ShardLocalCount(db.size(), s, num_shards);
    if (pending.assignment.size() != expected) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " PART covers " +
          std::to_string(pending.assignment.size()) + " sets; the id-mod-" +
          std::to_string(num_shards) + " split assigns it " +
          std::to_string(expected));
    }
    // Restore tombstones, mapping shard-local index l to global id l*S + s.
    // The PART sentinel is the authority for which ids are deleted; the
    // writer already dropped their tokens, and a sentinel entry that still
    // carries tokens means the file was stitched together.
    for (size_t l = 0; l < pending.assignment.size(); ++l) {
      if (pending.assignment[l] != kInvalidGroup) continue;
      const SetId gid = static_cast<SetId>(l * num_shards + s);
      if (db.set_size(gid) != 0) {
        return Status::InvalidArgument(
            "tombstoned set " + std::to_string(gid) + " carries tokens");
      }
      db.DeleteSet(gid);
    }
    ByteReader columns(pending.columns_payload, pending.columns_len);
    auto tgm = tgm::Tgm::Deserialize(std::move(pending.assignment),
                                     pending.num_groups,
                                     SliceSetSizes(db, s, num_shards),
                                     &columns);
    if (!tgm.ok()) {
      return Status::FromCode(tgm.status().code(),
                              "shard " + std::to_string(s) +
                                  " TGMC chunk: " + tgm.status().message());
    }
    if (!columns.AtEnd()) {
      return Status::InvalidArgument("trailing bytes in TGMC chunk");
    }
    ShardSnapshot shard{std::move(tgm).ValueOrDie()};
    if (shard.tgm.num_token_columns() > db.num_tokens()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) +
          " TGMC chunk has more columns than the token universe");
    }
    if (shard.tgm.bitmap_backend() != snapshot.meta.bitmap_backend) {
      return Status::InvalidArgument(
          "META bitmap backend disagrees with the TGMC chunk");
    }
    total_groups += shard.tgm.num_groups();
    snapshot.shards.push_back(std::move(shard));
  }
  if (total_groups != snapshot.meta.num_groups) {
    return Status::InvalidArgument(
        "META group count disagrees with the PART chunks");
  }
  snapshot.db = std::make_shared<SetDatabase>(std::move(db));
  return snapshot;
}

Status SaveSnapshot(const std::string& path, const SnapshotMeta& meta,
                    const SetDatabase& db,
                    const std::vector<const tgm::Tgm*>& shard_tgms,
                    const std::vector<const SetDatabase*>& shard_dbs,
                    const std::vector<l2p::CascadeModelSnapshot>& models) {
  ByteWriter writer;
  EncodeSnapshot(meta, db, shard_tgms, shard_dbs, models, &writer);
  return WriteFileBytes(path, writer.data());
}

Result<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  std::vector<uint8_t> bytes;
  LES3_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  auto snapshot = DecodeSnapshot(bytes.data(), bytes.size());
  if (!snapshot.ok()) {
    return Status::FromCode(snapshot.status().code(),
                            path + ": " + snapshot.status().message());
  }
  return snapshot;
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  out->clear();
  uint8_t buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("read failed: " + path);
  return Status::OK();
}

Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  // Write a sibling file and rename it over the target: a crash or a full
  // disk mid-write leaves the previous file whole, since the rename is the
  // only step that touches it and is atomic. The fsyncs make the new bytes
  // and then the new directory entry durable before Save reports success.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + tmp);
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0              ? "/"
                                                    : path.substr(0, slash);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return Status::IOError("cannot open directory: " + dir);
  bool synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  if (!synced) return Status::IOError("cannot sync directory: " + dir);
  return Status::OK();
}

}  // namespace persist
}  // namespace les3

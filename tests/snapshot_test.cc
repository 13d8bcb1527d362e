// Snapshot subsystem tests (persist/): byte-level primitives, exact
// save→load round-trips through the api layer, and the corruption
// contract — truncations, bit flips, bad headers, oversized chunk
// lengths, and semantically invalid payloads must all come back as
// Status errors, never a crash or an out-of-bounds access (this file
// also runs in the ASan+UBSan CI lane, which would catch any stray
// read the Status paths miss).

#include "persist/snapshot.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/engine_builder.h"
#include "datagen/generators.h"
#include "persist/bytes.h"
#include "tgm/tgm.h"
#include "util/random.h"

namespace les3 {
namespace persist {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures.

SetDatabase MakeDb(uint32_t num_sets, uint64_t seed) {
  datagen::ZipfOptions opts;
  opts.num_sets = num_sets;
  opts.num_tokens = 200;
  opts.avg_set_size = 8;
  opts.zipf_exponent = 0.9;
  opts.seed = seed;
  return datagen::GenerateZipf(opts);
}

api::EngineOptions FastOptions(SimilarityMeasure measure,
                               bitmap::BitmapBackend bitmap_backend) {
  api::EngineOptions options;
  options.measure = measure;
  options.num_groups = 16;
  options.cascade.init_groups = 8;  // < num_groups: models do get trained
  options.cascade.min_group_size = 8;
  options.cascade.pairs_per_model = 800;
  options.cascade.seed = 7;
  options.bitmap_backend = bitmap_backend;
  return options;
}

std::vector<SetRecord> MakeQueries(const SetDatabase& db, uint64_t seed) {
  Rng rng(seed);
  std::vector<SetRecord> queries;
  for (SetId id : datagen::SampleQueryIds(db, 5, seed)) {
    queries.emplace_back(db.set(id));
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<TokenId> tokens;
    size_t n = 1 + rng.Uniform(10);
    for (size_t j = 0; j < n; ++j) {
      tokens.push_back(static_cast<TokenId>(rng.Uniform(db.num_tokens() + 10)));
    }
    queries.push_back(SetRecord::FromTokens(std::move(tokens)));
  }
  queries.push_back(SetRecord::FromTokens({}));
  return queries;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "les3_" + name;
}

void ExpectExactHits(const std::vector<Hit>& expected,
                     const std::vector<Hit>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, actual[i].first) << label << " rank " << i;
    EXPECT_DOUBLE_EQ(expected[i].second, actual[i].second)
        << label << " rank " << i;
  }
}

void ExpectEnginesAgree(const api::SearchEngine& original,
                        const api::SearchEngine& reloaded,
                        const std::vector<SetRecord>& queries,
                        const std::string& label) {
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t k : {1u, 5u, 100u}) {
      ExpectExactHits(original.Knn(queries[qi], k).hits,
                      reloaded.Knn(queries[qi], k).hits,
                      label + "/knn k=" + std::to_string(k) +
                          " q=" + std::to_string(qi));
    }
    for (double delta : {0.3, 0.6, 0.9}) {
      ExpectExactHits(original.Range(queries[qi], delta).hits,
                      reloaded.Range(queries[qi], delta).hits,
                      label + "/range d=" + std::to_string(delta) +
                          " q=" + std::to_string(qi));
    }
  }
}

// ---------------------------------------------------------------------------
// Byte primitives.

TEST(BytesTest, Crc32MatchesKnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(BytesTest, RoundTripAndBoundsChecks) {
  ByteWriter w;
  w.WriteU8(7);
  w.WriteU16(0xBEEF);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteF32(1.5f);
  w.WriteString("hello");

  ByteReader r(w.data());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  float f;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadF32(&f).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f, 1.5f);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.AtEnd());
  // Reads past the end fail without advancing or touching output.
  EXPECT_FALSE(r.ReadU8(&u8).ok());
  EXPECT_FALSE(r.ReadU64(&u64).ok());

  // Little-endian layout is explicit, not host-dependent.
  EXPECT_EQ(w.data()[1], 0xEF);
  EXPECT_EQ(w.data()[2], 0xBE);
}

TEST(BytesTest, StringLengthIsCapped) {
  ByteWriter w;
  w.WriteU32(1u << 30);  // claimed length far beyond the buffer
  ByteReader r(w.data());
  std::string s;
  EXPECT_FALSE(r.ReadString(&s).ok());
}

// ---------------------------------------------------------------------------
// Round trips through the api layer.

class SnapshotRoundTripTest
    : public ::testing::TestWithParam<bitmap::BitmapBackend> {};

TEST_P(SnapshotRoundTripTest, MemoryEngineAgreesExactly) {
  auto db = std::make_shared<SetDatabase>(MakeDb(300, 11));
  auto queries = MakeQueries(*db, 12);
  auto options = FastOptions(SimilarityMeasure::kJaccard, GetParam());
  auto original = api::EngineBuilder::Build(db, "les3", options);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  std::string path =
      TempPath("roundtrip_" + bitmap::ToString(GetParam()) + ".snap");
  ASSERT_TRUE(original.value()->Save(path).ok());
  auto reloaded = api::EngineBuilder::Open(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  EXPECT_NE(reloaded.value()->Describe().find("snapshot=v1"),
            std::string::npos);
  EXPECT_EQ(original.value()->IndexBytes(), reloaded.value()->IndexBytes());
  ExpectEnginesAgree(*original.value(), *reloaded.value(), queries,
                     bitmap::ToString(GetParam()));
  std::remove(path.c_str());
}

TEST_P(SnapshotRoundTripTest, DiskEngineRegeneratesTheSameLayout) {
  auto db = std::make_shared<SetDatabase>(MakeDb(250, 21));
  auto queries = MakeQueries(*db, 22);
  auto options = FastOptions(SimilarityMeasure::kCosine, GetParam());
  auto original = api::EngineBuilder::Build(db, "disk_les3", options);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  std::string path =
      TempPath("disk_roundtrip_" + bitmap::ToString(GetParam()) + ".snap");
  ASSERT_TRUE(original.value()->Save(path).ok());
  auto reloaded = api::EngineBuilder::Open(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  // Same hits AND the same simulated I/O: seeks/pages depend on the
  // GroupContiguous extents, so equality means the reloaded assignment
  // regenerated the identical layout.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto expected = original.value()->Knn(queries[qi], 10);
    auto actual = reloaded.value()->Knn(queries[qi], 10);
    ExpectExactHits(expected.hits, actual.hits,
                    "disk knn q=" + std::to_string(qi));
    ASSERT_TRUE(expected.io.has_value());
    ASSERT_TRUE(actual.io.has_value());
    EXPECT_EQ(expected.io->seeks, actual.io->seeks) << "q=" << qi;
    EXPECT_EQ(expected.io->pages, actual.io->pages) << "q=" << qi;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Backends, SnapshotRoundTripTest,
                         ::testing::Values(bitmap::BitmapBackend::kRoaring,
                                           bitmap::BitmapBackend::kBitVector),
                         [](const auto& info) {
                           return bitmap::ToString(info.param);
                         });

TEST(SnapshotTest, ResaveAfterLoadIsByteIdentical) {
  // Exact container state survives the round trip: a reloaded engine
  // serializes to the very same bytes.
  auto db = std::make_shared<SetDatabase>(MakeDb(200, 31));
  auto options =
      FastOptions(SimilarityMeasure::kJaccard, bitmap::BitmapBackend::kRoaring);
  options.keep_l2p_models = true;
  auto original = api::EngineBuilder::Build(db, "les3", options);
  ASSERT_TRUE(original.ok());

  std::string path1 = TempPath("resave1.snap");
  std::string path2 = TempPath("resave2.snap");
  ASSERT_TRUE(original.value()->Save(path1).ok());
  auto reloaded = api::EngineBuilder::Open(path1);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_TRUE(reloaded.value()->Save(path2).ok());

  std::vector<uint8_t> bytes1, bytes2;
  ASSERT_TRUE(ReadFileBytes(path1, &bytes1).ok());
  ASSERT_TRUE(ReadFileBytes(path2, &bytes2).ok());
  EXPECT_EQ(bytes1, bytes2);
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

// les3 is the one-shard sharded engine, but it keeps the single-index
// artifact: Save writes v1 (with the trained cascade when it was kept),
// a reopen re-saves to the very same bytes, and the v1/v2 pairing with
// the backend name is enforced both ways.
class Les3SnapshotTest : public ::testing::TestWithParam<bool> {};

TEST_P(Les3SnapshotTest, BuildSaveOpenSaveIsByteIdentical) {
  const bool keep_models = GetParam();
  auto db = std::make_shared<SetDatabase>(MakeDb(220, 33));
  auto options =
      FastOptions(SimilarityMeasure::kJaccard, bitmap::BitmapBackend::kRoaring);
  options.keep_l2p_models = keep_models;
  options.num_shards = 4;  // ignored: les3 is always one shard
  auto original = api::EngineBuilder::Build(db, "les3", options);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  std::string describe = original.value()->Describe();
  EXPECT_EQ(describe.rfind("les3(shards=1,", 0), 0u) << describe;
  EXPECT_EQ(describe.find("l2p_models=") != std::string::npos, keep_models)
      << describe;

  const std::string tag = keep_models ? "models" : "nomodels";
  std::string path1 = TempPath("les3_resave1_" + tag + ".snap");
  std::string path2 = TempPath("les3_resave2_" + tag + ".snap");
  ASSERT_TRUE(original.value()->Save(path1).ok());
  auto reloaded = api::EngineBuilder::Open(path1);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value()->Describe().rfind("les3(shards=1,", 0), 0u)
      << reloaded.value()->Describe();
  ASSERT_TRUE(reloaded.value()->Save(path2).ok());

  std::vector<uint8_t> bytes1, bytes2;
  ASSERT_TRUE(ReadFileBytes(path1, &bytes1).ok());
  ASSERT_TRUE(ReadFileBytes(path2, &bytes2).ok());
  EXPECT_EQ(bytes1, bytes2);
  auto decoded = DecodeSnapshot(bytes1.data(), bytes1.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().version, kSnapshotVersion);
  EXPECT_EQ(decoded.value().meta.backend, "les3");
  EXPECT_EQ(decoded.value().shards.size(), 1u);
  EXPECT_EQ(decoded.value().models.empty(), !keep_models);

  // A v1 file never reopens as the sharded engine...
  api::OpenOptions as_sharded;
  as_sharded.backend = "sharded_les3";
  auto refused = api::EngineBuilder::Open(path1, as_sharded);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  // ...and a v2 file never reopens as les3.
  auto sharded = api::EngineBuilder::Build(db, "sharded_les3", options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  std::string v2_path = TempPath("les3_kind_v2_" + tag + ".snap");
  ASSERT_TRUE(sharded.value()->Save(v2_path).ok());
  api::OpenOptions as_les3;
  as_les3.backend = "les3";
  auto refused_v2 = api::EngineBuilder::Open(v2_path, as_les3);
  ASSERT_FALSE(refused_v2.ok());
  EXPECT_EQ(refused_v2.status().code(), StatusCode::kInvalidArgument);

  std::remove(path1.c_str());
  std::remove(path2.c_str());
  std::remove(v2_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(KeepModels, Les3SnapshotTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "WithModels" : "WithoutModels";
                         });

TEST(SnapshotTest, FailedSaveKeepsThePreviousSnapshot) {
  // Save writes path.tmp and renames it over the target. A directory
  // squatting on path.tmp makes that write fail: Save must report IOError
  // and leave the last good snapshot whole — still loadable, and
  // re-saving to the very same bytes.
  auto db = std::make_shared<SetDatabase>(MakeDb(200, 37));
  auto original = api::EngineBuilder::Build(
      db, "sharded_les3",
      FastOptions(SimilarityMeasure::kJaccard,
                  bitmap::BitmapBackend::kRoaring));
  ASSERT_TRUE(original.ok());
  std::string path = TempPath("failed_save.snap");
  ASSERT_TRUE(original.value()->Save(path).ok());
  std::vector<uint8_t> good;
  ASSERT_TRUE(ReadFileBytes(path, &good).ok());

  std::string tmp = path + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  ASSERT_TRUE(original.value()->Insert(SetRecord::FromTokens({1, 2, 3})).ok());
  Status failed = original.value()->Save(path);
  EXPECT_EQ(failed.code(), StatusCode::kIOError) << failed.ToString();
  ::rmdir(tmp.c_str());

  std::vector<uint8_t> after;
  ASSERT_TRUE(ReadFileBytes(path, &after).ok());
  EXPECT_EQ(after, good);
  auto reloaded = api::EngineBuilder::Open(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::string resave = TempPath("failed_save_resave.snap");
  ASSERT_TRUE(reloaded.value()->Save(resave).ok());
  std::vector<uint8_t> resaved;
  ASSERT_TRUE(ReadFileBytes(resave, &resaved).ok());
  EXPECT_EQ(resaved, good);
  std::remove(path.c_str());
  std::remove(resave.c_str());
}

TEST(SnapshotTest, L2pModelsPersistAcrossReload) {
  auto db = std::make_shared<SetDatabase>(MakeDb(300, 41));
  auto options =
      FastOptions(SimilarityMeasure::kJaccard, bitmap::BitmapBackend::kRoaring);
  options.keep_l2p_models = true;
  auto original = api::EngineBuilder::Build(db, "les3", options);
  ASSERT_TRUE(original.ok());
  // init_groups=8 < num_groups=16 over 300 sets: models must be trained.
  std::string describe = original.value()->Describe();
  ASSERT_NE(describe.find("l2p_models="), std::string::npos) << describe;

  std::string path = TempPath("l2p.snap");
  ASSERT_TRUE(original.value()->Save(path).ok());
  auto reloaded = api::EngineBuilder::Open(path);
  ASSERT_TRUE(reloaded.ok());
  // The persisted-model count is part of Describe() and must survive.
  std::string tail = describe.substr(describe.find("l2p_models="));
  tail = tail.substr(0, tail.find_first_of(",)"));
  EXPECT_NE(reloaded.value()->Describe().find(tail), std::string::npos)
      << reloaded.value()->Describe();
  std::remove(path.c_str());
}

TEST(SnapshotTest, BackendOverrideOnOpen) {
  auto db = std::make_shared<SetDatabase>(MakeDb(150, 51));
  auto options =
      FastOptions(SimilarityMeasure::kJaccard, bitmap::BitmapBackend::kRoaring);
  auto original = api::EngineBuilder::Build(db, "les3", options);
  ASSERT_TRUE(original.ok());
  std::string path = TempPath("override.snap");
  ASSERT_TRUE(original.value()->Save(path).ok());

  api::OpenOptions disk_open;
  disk_open.backend = "disk_les3";
  auto as_disk = api::EngineBuilder::Open(path, disk_open);
  ASSERT_TRUE(as_disk.ok()) << as_disk.status().ToString();
  EXPECT_NE(as_disk.value()->Describe().find("disk_les3("),
            std::string::npos);
  auto queries = MakeQueries(*db, 52);
  ExpectEnginesAgree(*original.value(), *as_disk.value(), queries,
                     "open-as-disk");

  api::OpenOptions bad_open;
  bad_open.backend = "brute_force";
  auto bad = api::EngineBuilder::Open(path, bad_open);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveUnsupportedOnNonLes3Backends) {
  auto db = std::make_shared<SetDatabase>(MakeDb(100, 61));
  for (const char* backend : {"brute_force", "invidx", "dualtrans"}) {
    auto engine = api::EngineBuilder::Build(db, backend);
    ASSERT_TRUE(engine.ok());
    Status s = engine.value()->Save(TempPath("unsupported.snap"));
    EXPECT_EQ(s.code(), StatusCode::kNotSupported) << backend;
  }
}

TEST(SnapshotTest, MissingFileIsAnError) {
  auto missing = api::EngineBuilder::Open(TempPath("does_not_exist.snap"));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Corruption robustness. One valid byte buffer, attacked in every way the
// issue names; DecodeSnapshot must return a Status every time.

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = std::make_shared<SetDatabase>(MakeDb(120, 71));
    auto options = FastOptions(SimilarityMeasure::kJaccard,
                               bitmap::BitmapBackend::kRoaring);
    options.keep_l2p_models = true;  // exercise the L2P chunk too
    auto engine = api::EngineBuilder::Build(db, "les3", options);
    ASSERT_TRUE(engine.ok());
    std::string path = TempPath("corruption_base.snap");
    ASSERT_TRUE(engine.value()->Save(path).ok());
    bytes_ = new std::vector<uint8_t>();
    ASSERT_TRUE(ReadFileBytes(path, bytes_).ok());
    std::remove(path.c_str());
    ASSERT_TRUE(DecodeSnapshot(bytes_->data(), bytes_->size()).ok());
  }
  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
  }

  static std::vector<uint8_t>* bytes_;
};

std::vector<uint8_t>* SnapshotCorruptionTest::bytes_ = nullptr;

TEST_F(SnapshotCorruptionTest, EveryTruncationFails) {
  const auto& bytes = *bytes_;
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto result = DecodeSnapshot(bytes.data(), len);
    EXPECT_FALSE(result.ok()) << "truncation at " << len << " of "
                              << bytes.size();
  }
}

TEST_F(SnapshotCorruptionTest, EverySingleBitFlipFails) {
  // One flip per byte (rotating bit position) keeps the sweep quadratic-
  // free while still touching every header field, length, payload byte,
  // and checksum.
  std::vector<uint8_t> corrupted = *bytes_;
  for (size_t i = 0; i < corrupted.size(); ++i) {
    uint8_t mask = static_cast<uint8_t>(1u << (i % 8));
    corrupted[i] ^= mask;
    auto result = DecodeSnapshot(corrupted.data(), corrupted.size());
    EXPECT_FALSE(result.ok()) << "bit flip at byte " << i;
    corrupted[i] ^= mask;
  }
}

TEST_F(SnapshotCorruptionTest, BadMagicVersionAndFlags) {
  std::vector<uint8_t> bad = *bytes_;
  bad[0] = 'X';
  auto r = DecodeSnapshot(bad.data(), bad.size());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);

  bad = *bytes_;
  // A version beyond anything this build reads.
  bad[8] = static_cast<uint8_t>(kMaxSnapshotVersion + 1);
  r = DecodeSnapshot(bad.data(), bad.size());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);

  // Version 2 exists (sharded snapshots) but this file has a v1 layout:
  // relabeling the header must fail cleanly, not decode as sharded.
  bad = *bytes_;
  bad[8] = static_cast<uint8_t>(kSnapshotVersionSharded);
  EXPECT_FALSE(DecodeSnapshot(bad.data(), bad.size()).ok());

  // Flag bit 0 (kSnapshotFlagTombstones) is known: it promises only that
  // tombstone sentinels MAY appear, so setting it on a clean file still
  // decodes — and must not invent any deletions.
  bad = *bytes_;
  bad[12] = 1;
  auto flagged = DecodeSnapshot(bad.data(), bad.size());
  ASSERT_TRUE(flagged.ok()) << flagged.status().ToString();
  EXPECT_EQ(flagged.value().db->num_deleted(), 0u);

  // Any other flag bit is from a future format: reject, never guess.
  for (uint8_t unknown : {uint8_t{2}, uint8_t{3}, uint8_t{0x80}}) {
    bad = *bytes_;
    bad[12] = unknown;
    auto r2 = DecodeSnapshot(bad.data(), bad.size());
    ASSERT_FALSE(r2.ok()) << "flags " << int(unknown);
    EXPECT_NE(r2.status().message().find("flag"), std::string::npos)
        << r2.status().ToString();
  }
}

TEST_F(SnapshotCorruptionTest, OversizedChunkLengthFails) {
  // The first chunk header sits right after the 16-byte file header:
  // u32 type at 16, u64 payload length at 20.
  std::vector<uint8_t> bad = *bytes_;
  for (uint8_t b : {0xFF, 0x7F}) {
    for (size_t i = 20; i < 28; ++i) bad[i] = b;  // absurd 64-bit length
    auto result = DecodeSnapshot(bad.data(), bad.size());
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("exceeds the file size"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(SnapshotCorruptionTest, GarbageAndEmptyInputsFail) {
  EXPECT_FALSE(DecodeSnapshot(nullptr, 0).ok());
  std::vector<uint8_t> garbage(1024, 0xAB);
  EXPECT_FALSE(DecodeSnapshot(garbage.data(), garbage.size()).ok());
  // A valid header with no chunks at all.
  ByteWriter w;
  w.WriteBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.WriteU32(kSnapshotVersion);
  w.WriteU32(0);
  EXPECT_FALSE(DecodeSnapshot(w.data().data(), w.data().size()).ok());
}

TEST_F(SnapshotCorruptionTest, TrailingGarbageAfterEndChunkFails) {
  std::vector<uint8_t> bad = *bytes_;
  bad.push_back(0);
  EXPECT_FALSE(DecodeSnapshot(bad.data(), bad.size()).ok());
}

// ---------------------------------------------------------------------------
// Semantic validation of the inner payloads, attacked below the CRC layer
// (crafted buffers, no checksums involved): the deserializers themselves
// must reject anything that would break the query kernels' invariants.

TEST(SnapshotSemanticTest, TgmRejectsOutOfRangeAssignment) {
  ByteWriter w;
  tgm::Tgm tgm(SetDatabase(4), {}, 2);
  tgm.SerializeColumns(&w);
  std::vector<GroupId> bad_assignment = {0, 1, 2};  // 2 >= num_groups
  ByteReader r(w.data());
  auto result =
      tgm::Tgm::Deserialize(bad_assignment, 2, {1, 1, 1}, &r);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(SnapshotSemanticTest, TgmRejectsGroupCountBeyondSetCount) {
  // Partitionings are dense, so num_groups can never exceed |assignment|;
  // an attacker-sized group count must be rejected before the membership
  // allocation, not after.
  ByteWriter w;
  tgm::Tgm tgm(SetDatabase(4), {}, 2);
  tgm.SerializeColumns(&w);
  std::vector<GroupId> assignment = {0, 1, 0};
  ByteReader r(w.data());
  auto result =
      tgm::Tgm::Deserialize(assignment, 0xFFFFFFFFu, {1, 1, 1}, &r);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(SnapshotSemanticTest, ColumnValueBeyondGroupCountRejected) {
  // A column naming group 40 must not load into an 8-group matrix: the
  // count kernels would write past the counter array.
  bitmap::BitmapColumn col = bitmap::BitmapColumn::FromSorted(
      bitmap::BitmapBackend::kRoaring, {1, 3, 40});
  ByteWriter w;
  col.Serialize(&w);
  ByteReader ok_reader(w.data());
  EXPECT_TRUE(bitmap::BitmapColumn::Deserialize(&ok_reader, 41).ok());
  ByteReader bad_reader(w.data());
  auto result = bitmap::BitmapColumn::Deserialize(&bad_reader, 8);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(SnapshotSemanticTest, RoaringStructuralInvariantsEnforced) {
  {
    // Array values not strictly ascending.
    ByteWriter w;
    w.WriteU32(1);            // one container
    w.WriteU16(0);            // key
    w.WriteU8(0);             // array tag
    w.WriteU32(2);            // two values
    w.WriteU16(5);
    w.WriteU16(5);            // duplicate
    ByteReader r(w.data());
    EXPECT_FALSE(bitmap::Roaring::Deserialize(&r, 1 << 20).ok());
  }
  {
    // Bitset cardinality disagreeing with its popcount.
    ByteWriter w;
    w.WriteU32(1);
    w.WriteU16(0);
    w.WriteU8(1);             // bitset tag
    w.WriteU32(7);            // claimed cardinality
    w.WriteU64(0b11);         // actual popcount 2
    for (int i = 1; i < 1024; ++i) w.WriteU64(0);
    ByteReader r(w.data());
    EXPECT_FALSE(bitmap::Roaring::Deserialize(&r, 1 << 20).ok());
  }
  {
    // Overlapping runs.
    ByteWriter w;
    w.WriteU32(1);
    w.WriteU16(0);
    w.WriteU8(2);             // run tag
    w.WriteU32(2);
    w.WriteU16(0);
    w.WriteU16(10);           // [0, 10]
    w.WriteU16(5);
    w.WriteU16(3);            // [5, 8] overlaps
    ByteReader r(w.data());
    EXPECT_FALSE(bitmap::Roaring::Deserialize(&r, 1 << 20).ok());
  }
  {
    // Unknown container tag.
    ByteWriter w;
    w.WriteU32(1);
    w.WriteU16(0);
    w.WriteU8(9);
    ByteReader r(w.data());
    EXPECT_FALSE(bitmap::Roaring::Deserialize(&r, 1 << 20).ok());
  }
}

TEST(SnapshotSemanticTest, DenseColumnInvariantsEnforced) {
  {
    // Stray bit past the logical size.
    ByteWriter w;
    w.WriteU64(10);     // num_bits
    w.WriteU64(1u << 12);  // bit 12 set, but only bits [0, 10) are legal
    ByteReader r(w.data());
    EXPECT_FALSE(bitmap::BitVector::Deserialize(&r, 64).ok());
  }
  {
    // Size beyond the universe bound.
    ByteWriter w;
    w.WriteU64(100);
    for (int i = 0; i < 2; ++i) w.WriteU64(0);
    ByteReader r(w.data());
    EXPECT_FALSE(bitmap::BitVector::Deserialize(&r, 32).ok());
  }
  {
    // Column cardinality disagreeing with the bits.
    ByteWriter w;
    w.WriteU8(static_cast<uint8_t>(bitmap::BitmapBackend::kBitVector));
    w.WriteU64(5);      // claimed cardinality
    w.WriteU64(8);      // num_bits
    w.WriteU64(0b101);  // actual popcount 2
    ByteReader r(w.data());
    EXPECT_FALSE(bitmap::BitmapColumn::Deserialize(&r, 64).ok());
  }
}

// ---------------------------------------------------------------------------
// Tombstone persistence (docs/snapshot_format.md, "Tombstones"): deleted
// ids travel as kInvalidGroup sentinels in PART under header flag bit 0,
// columns are compacted at save, and the two validation edges — sentinel
// without the flag, sentinel whose DB entry still carries tokens — are
// rejected.

uint32_t ReadU32At(const std::vector<uint8_t>& bytes, size_t off) {
  return static_cast<uint32_t>(bytes[off]) |
         static_cast<uint32_t>(bytes[off + 1]) << 8 |
         static_cast<uint32_t>(bytes[off + 2]) << 16 |
         static_cast<uint32_t>(bytes[off + 3]) << 24;
}

void WriteU32At(std::vector<uint8_t>* bytes, size_t off, uint32_t v) {
  (*bytes)[off] = static_cast<uint8_t>(v);
  (*bytes)[off + 1] = static_cast<uint8_t>(v >> 8);
  (*bytes)[off + 2] = static_cast<uint8_t>(v >> 16);
  (*bytes)[off + 3] = static_cast<uint8_t>(v >> 24);
}

/// Payload offset and length of the first chunk of `type` (16-byte file
/// header, then type u32 + length u64 + payload + crc u32 per chunk).
bool FindChunk(const std::vector<uint8_t>& bytes, ChunkType type,
               size_t* payload_off, size_t* payload_len) {
  size_t off = 16;
  while (off + 12 <= bytes.size()) {
    uint32_t chunk_type = ReadU32At(bytes, off);
    uint64_t len = static_cast<uint64_t>(ReadU32At(bytes, off + 4)) |
                   static_cast<uint64_t>(ReadU32At(bytes, off + 8)) << 32;
    if (chunk_type == static_cast<uint32_t>(type)) {
      *payload_off = off + 12;
      *payload_len = static_cast<size_t>(len);
      return true;
    }
    if (chunk_type == static_cast<uint32_t>(ChunkType::kEnd)) return false;
    off += 12 + static_cast<size_t>(len) + 4;
  }
  return false;
}

/// Recomputes the CRC that trails the chunk at `payload_off`.
void FixChunkCrc(std::vector<uint8_t>* bytes, size_t payload_off,
                 size_t payload_len) {
  WriteU32At(bytes, payload_off + payload_len,
             Crc32(bytes->data() + payload_off, payload_len));
}

std::unique_ptr<api::SearchEngine> BuildMutatedEngine(
    const std::string& backend, uint32_t num_shards) {
  auto db = std::make_shared<SetDatabase>(MakeDb(150, 83));
  auto options =
      FastOptions(SimilarityMeasure::kJaccard, bitmap::BitmapBackend::kRoaring);
  options.num_shards = num_shards;
  auto built = api::EngineBuilder::Build(db, backend, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return nullptr;
  std::unique_ptr<api::SearchEngine> engine = std::move(built).ValueOrDie();
  for (SetId id = 1; id < 150; id += 13) {
    EXPECT_TRUE(
        engine->Update(id, SetRecord::FromTokens({5, 9, 300 + id})).ok());
  }
  // Updates first, then deletes: id 66 gets both (update then tombstone).
  for (SetId id = 0; id < 150; id += 11) {
    EXPECT_TRUE(engine->Delete(id).ok());
  }
  return engine;
}

class SnapshotTombstoneTest : public ::testing::TestWithParam<
                                  std::pair<const char*, uint32_t>> {};

TEST_P(SnapshotTombstoneTest, FlaggedCompactedRoundTrip) {
  const auto [backend, num_shards] = GetParam();
  auto engine = BuildMutatedEngine(backend, num_shards);
  ASSERT_NE(engine, nullptr);

  std::string path1 = TempPath(std::string("tomb1_") + backend + ".snap");
  std::string path2 = TempPath(std::string("tomb2_") + backend + ".snap");
  ASSERT_TRUE(engine->Save(path1).ok());

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path1, &bytes).ok());
  EXPECT_EQ(ReadU32At(bytes, 12), kSnapshotFlagTombstones);

  auto reloaded = api::EngineBuilder::Open(path1);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value()->db().num_deleted(), engine->db().num_deleted());
  EXPECT_EQ(reloaded.value()->db().size(), engine->db().size());
  for (const SetRecord& query : MakeQueries(engine->db(), 59)) {
    ExpectExactHits(engine->Knn(query.view(), 10).hits,
                    reloaded.value()->Knn(query.view(), 10).hits,
                    "reloaded knn");
    ExpectExactHits(engine->Range(query.view(), 0.4).hits,
                    reloaded.value()->Range(query.view(), 0.4).hits,
                    "reloaded range");
  }

  // Compaction is a fixed point: the reloaded engine re-saves to the
  // very same bytes (tombstones and all).
  ASSERT_TRUE(reloaded.value()->Save(path2).ok());
  std::vector<uint8_t> bytes2;
  ASSERT_TRUE(ReadFileBytes(path2, &bytes2).ok());
  EXPECT_EQ(bytes, bytes2);
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SnapshotTombstoneTest,
    ::testing::Values(std::make_pair("les3", 1u),
                      std::make_pair("sharded_les3", 3u)),
    [](const auto& info) { return std::string(info.param.first); });

TEST(SnapshotTombstoneTest, CleanSaveStaysFlagless) {
  // A database that never saw a delete writes a flagless file — the
  // byte-compatibility guarantee the golden test pins across builds.
  auto db = std::make_shared<SetDatabase>(MakeDb(80, 97));
  auto built = api::EngineBuilder::Build(
      db, "les3",
      FastOptions(SimilarityMeasure::kJaccard,
                  bitmap::BitmapBackend::kRoaring));
  ASSERT_TRUE(built.ok());
  // Inserts mutate, but leave no holes and no dirt: still flagless.
  ASSERT_TRUE(built.value()->Insert(SetRecord::FromTokens({1, 2, 3})).ok());
  std::string path = TempPath("tomb_clean.snap");
  ASSERT_TRUE(built.value()->Save(path).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  EXPECT_EQ(ReadU32At(bytes, 12), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTombstoneTest, SentinelWithoutFlagRejected) {
  auto engine = BuildMutatedEngine("les3", 1);
  ASSERT_NE(engine, nullptr);
  std::string path = TempPath("tomb_noflag.snap");
  ASSERT_TRUE(engine->Save(path).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  std::remove(path.c_str());
  ASSERT_EQ(ReadU32At(bytes, 12), kSnapshotFlagTombstones);

  // Clear the flag: the PART sentinels are now format violations — a
  // build that predates tombstones must never load this file silently.
  WriteU32At(&bytes, 12, 0);
  auto result = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("flag"), std::string::npos)
      << result.status().ToString();
}

TEST(SnapshotTombstoneTest, TombstonedSetWithTokensRejected) {
  // Stitch a hostile file: take a clean snapshot, set the tombstone
  // flag, and park a live set's assignment at the sentinel. Its DB entry
  // still carries tokens, which the loader must treat as corruption
  // (a real writer empties the span before writing the sentinel).
  auto db = std::make_shared<SetDatabase>(MakeDb(80, 101));
  auto built = api::EngineBuilder::Build(
      db, "les3",
      FastOptions(SimilarityMeasure::kJaccard,
                  bitmap::BitmapBackend::kRoaring));
  ASSERT_TRUE(built.ok());
  std::string path = TempPath("tomb_stitched.snap");
  ASSERT_TRUE(built.value()->Save(path).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  std::remove(path.c_str());

  WriteU32At(&bytes, 12, kSnapshotFlagTombstones);
  size_t part_off = 0, part_len = 0;
  ASSERT_TRUE(FindChunk(bytes, ChunkType::kPartition, &part_off, &part_len));
  // PART payload: num_groups u32, count u32, then one u32 per set.
  ASSERT_EQ(ReadU32At(bytes, part_off + 4), 80u);
  WriteU32At(&bytes, part_off + 8 + 4 * 7, kInvalidGroup);  // live set 7
  FixChunkCrc(&bytes, part_off, part_len);

  auto result = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("carries tokens"),
            std::string::npos)
      << result.status().ToString();
}

// ---------------------------------------------------------------------------
// Decoder chunk-order rules (docs/snapshot_format.md, "File layout"): one
// decoder reads both versions, so a v1 file must be exactly the one-shard
// PART-then-TGMC layout, L2P is v1-only, and the META backend must write
// the header's version. Each stream below is stitched from the chunks of
// real snapshots with every CRC recomputed, so only the rule under test
// can reject it.

struct RawChunk {
  ChunkType type;
  std::vector<uint8_t> payload;
};

std::vector<RawChunk> SplitChunks(const std::vector<uint8_t>& bytes) {
  std::vector<RawChunk> chunks;
  size_t off = 16;
  while (off + 12 <= bytes.size()) {
    const size_t len = ReadU32At(bytes, off + 4);  // high word is 0 here
    const uint8_t* payload = bytes.data() + off + 12;
    chunks.push_back({static_cast<ChunkType>(ReadU32At(bytes, off)),
                      std::vector<uint8_t>(payload, payload + len)});
    off += 12 + len + 4;
  }
  return chunks;
}

std::vector<uint8_t> JoinChunks(uint32_t version,
                                const std::vector<RawChunk>& chunks) {
  ByteWriter w;
  w.WriteBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.WriteU32(version);
  w.WriteU32(0);  // flags
  for (const RawChunk& c : chunks) {
    w.WriteU32(static_cast<uint32_t>(c.type));
    w.WriteU64(c.payload.size());
    w.WriteBytes(c.payload.data(), c.payload.size());
    w.WriteU32(Crc32(c.payload.data(), c.payload.size()));
  }
  return w.data();
}

/// A META payload in the layout of `version` (the shard count is a v2
/// field) claiming `backend`, with `meta`'s other fields.
RawChunk MetaChunk(SnapshotMeta meta, const std::string& backend,
                   uint32_t version) {
  ByteWriter w;
  w.WriteString(backend);
  w.WriteU8(static_cast<uint8_t>(meta.measure));
  w.WriteU8(static_cast<uint8_t>(meta.bitmap_backend));
  w.WriteU32(meta.num_groups);
  w.WriteU64(meta.num_sets);
  w.WriteU32(meta.num_tokens);
  if (version == kSnapshotVersionSharded) w.WriteU32(meta.num_shards);
  return {ChunkType::kMeta, w.data()};
}

std::vector<uint8_t> SavedBytes(const std::string& backend,
                                uint32_t num_shards) {
  auto db = std::make_shared<SetDatabase>(MakeDb(90, 113));
  auto options =
      FastOptions(SimilarityMeasure::kJaccard, bitmap::BitmapBackend::kRoaring);
  options.keep_l2p_models = true;  // v1 carries an L2P chunk
  options.num_shards = num_shards;
  auto built = api::EngineBuilder::Build(db, backend, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  std::string path = TempPath("rules_" + backend + ".snap");
  EXPECT_TRUE(built.value()->Save(path).ok());
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes).ok());
  std::remove(path.c_str());
  return bytes;
}

TEST(SnapshotDecoderRuleTest, MalformedChunkStreamsAreRejected) {
  const std::vector<uint8_t> v1_bytes = SavedBytes("les3", 1);
  const std::vector<uint8_t> v2_bytes = SavedBytes("sharded_les3", 3);
  const std::vector<RawChunk> v1 = SplitChunks(v1_bytes);
  const std::vector<RawChunk> v2 = SplitChunks(v2_bytes);
  // META DB PART TGMC L2P END, and META DB (PART TGMC) x3 END.
  ASSERT_EQ(v1.size(), 6u);
  ASSERT_EQ(v1[4].type, ChunkType::kL2pModels);
  ASSERT_EQ(v2.size(), 9u);
  // Re-joining the untouched chunks reproduces a valid file.
  ASSERT_EQ(JoinChunks(kSnapshotVersion, v1), v1_bytes);
  ASSERT_EQ(JoinChunks(kSnapshotVersionSharded, v2), v2_bytes);
  auto v1_decoded = DecodeSnapshot(v1_bytes.data(), v1_bytes.size());
  auto v2_decoded = DecodeSnapshot(v2_bytes.data(), v2_bytes.size());
  ASSERT_TRUE(v1_decoded.ok()) << v1_decoded.status().ToString();
  ASSERT_TRUE(v2_decoded.ok()) << v2_decoded.status().ToString();

  const RawChunk &meta1 = v1[0], &db1 = v1[1], &part1 = v1[2],
                 &tgmc1 = v1[3], &l2p = v1[4], &end = v1[5];
  std::vector<RawChunk> v2_last_tgmc_dropped = v2;
  v2_last_tgmc_dropped.erase(v2_last_tgmc_dropped.end() - 2);
  std::vector<RawChunk> v2_with_l2p = v2;
  v2_with_l2p.insert(v2_with_l2p.end() - 1, l2p);
  std::vector<RawChunk> v2_claims_les3 = v2;
  v2_claims_les3[0] = MetaChunk(v2_decoded.value().meta, "les3",
                                kSnapshotVersionSharded);
  std::vector<RawChunk> v1_claims_sharded = v1;
  v1_claims_sharded[0] = MetaChunk(v1_decoded.value().meta, "sharded_les3",
                                   kSnapshotVersion);
  ASSERT_EQ(MetaChunk(v1_decoded.value().meta, "les3", kSnapshotVersion)
                .payload,
            meta1.payload);
  ASSERT_EQ(MetaChunk(v2_decoded.value().meta, "sharded_les3",
                      kSnapshotVersionSharded)
                .payload,
            v2[0].payload);

  struct Case {
    const char* name;
    uint32_t version;
    std::vector<RawChunk> chunks;
    const char* message;  // a substring of the expected error
  };
  const std::vector<Case> cases = {
      {"v1 with two PART/TGMC pairs", kSnapshotVersion,
       {meta1, db1, part1, tgmc1, part1, tgmc1, end},
       "PART/TGMC pairs"},
      {"v1 with TGMC before PART", kSnapshotVersion,
       {meta1, db1, tgmc1, part1, end},
       "without a preceding PART"},
      {"v1 ending on a PART", kSnapshotVersion,
       {meta1, db1, part1, end},
       "not followed by its shard's TGMC"},
      {"v2 ending on a PART", kSnapshotVersionSharded, v2_last_tgmc_dropped,
       "not followed by its shard's TGMC"},
      {"v2 with an L2P chunk", kSnapshotVersionSharded, v2_with_l2p,
       "L2P"},
      {"v1 header, META says sharded_les3", kSnapshotVersion,
       v1_claims_sharded, "does not write version 1"},
      {"v2 header, META says les3", kSnapshotVersionSharded, v2_claims_les3,
       "does not write version 2"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<uint8_t> bytes = JoinChunks(c.version, c.chunks);
    auto result = DecodeSnapshot(bytes.data(), bytes.size());
    EXPECT_FALSE(result.ok());
    if (result.ok()) continue;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find(c.message), std::string::npos)
        << result.status().ToString();
  }
}

}  // namespace
}  // namespace persist
}  // namespace les3

// Golden-file test: the serialized form of a fixed-seed build is pinned
// byte-for-byte against a snapshot checked into tests/data/, once per
// format version: golden_v1.les3snap (backend les3, one shard) and
// golden_v2.les3snap (backend sharded_les3, three shards). Any change to
// the encoding — field order, widths, container layout, chunk framing —
// fails this test and forces a deliberate format-version bump (plus a
// regenerated golden file).
//
// The golden corpus is built with init_groups == num_groups, so the L2P
// cascade performs sorted initialization only and trains zero models:
// the build is pure integer code, deterministic across compilers, which
// is what makes a byte-level pin meaningful (CI uploads the artifacts so
// other platforms can diff them too).
//
// Regenerate after an intentional format change:
//   LES3_UPDATE_GOLDEN=1 ./build/snapshot_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/engine_builder.h"
#include "datagen/generators.h"
#include "persist/snapshot.h"

#ifndef LES3_TEST_DATA_DIR
#error "LES3_TEST_DATA_DIR must point at tests/data (set by CMakeLists.txt)"
#endif

namespace les3 {
namespace persist {
namespace {

/// One pinned format: the file under tests/data, and the backend and
/// shard count whose fixed-seed build must serialize to it.
struct GoldenCase {
  const char* file;
  const char* backend;
  size_t num_shards;
};

std::string GoldenPath(const GoldenCase& c) {
  return std::string(LES3_TEST_DATA_DIR) + "/" + c.file;
}

/// The pinned build: every knob fixed, no trained models (see header
/// comment), so the snapshot bytes are a pure function of this recipe.
std::shared_ptr<SetDatabase> GoldenDb() {
  datagen::UniformOptions o;
  o.num_sets = 120;
  o.num_tokens = 40;
  o.avg_set_size = 4.0;
  o.seed = 7;
  return std::make_shared<SetDatabase>(datagen::GenerateUniform(o));
}

api::EngineOptions GoldenOptions(const GoldenCase& c) {
  api::EngineOptions options;
  options.measure = SimilarityMeasure::kJaccard;
  options.num_groups = 10;
  options.cascade.init_groups = 10;  // == num_groups: no models trained
  options.cascade.seed = 7;
  options.keep_l2p_models = true;  // trained-model set is provably empty
  options.num_shards = c.num_shards;
  return options;
}

std::unique_ptr<api::SearchEngine> BuildGolden(const GoldenCase& c) {
  auto engine = api::EngineBuilder::Build(GoldenDb(), c.backend,
                                          GoldenOptions(c));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).ValueOrDie() : nullptr;
}

std::vector<uint8_t> BuildGoldenBytes(const GoldenCase& c) {
  auto engine = BuildGolden(c);
  if (engine == nullptr) return {};
  std::string path =
      ::testing::TempDir() + "les3_golden_fresh_" + c.backend + ".snap";
  EXPECT_TRUE(engine->Save(path).ok());
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes).ok());
  std::remove(path.c_str());
  return bytes;
}

class SnapshotGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SnapshotGoldenTest, FixedSeedBuildSerializesByteStable) {
  const GoldenCase& c = GetParam();
  std::vector<uint8_t> fresh = BuildGoldenBytes(c);
  ASSERT_FALSE(fresh.empty());
  if (std::getenv("LES3_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteFileBytes(GoldenPath(c), fresh).ok());
    GTEST_SKIP() << "golden file regenerated at " << GoldenPath(c);
  }
  std::vector<uint8_t> golden;
  ASSERT_TRUE(ReadFileBytes(GoldenPath(c), &golden).ok())
      << "missing golden file; regenerate with LES3_UPDATE_GOLDEN=1";
  ASSERT_EQ(golden.size(), fresh.size())
      << "serialized size changed — format drift without a version bump?";
  // Locate the first diverging byte for an actionable failure message.
  for (size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(golden[i], fresh[i])
        << "snapshot bytes diverge at offset " << i
        << " — the format changed; bump the snapshot version and regenerate";
  }
}

TEST_P(SnapshotGoldenTest, GoldenFileOpensAndAnswersExactly) {
  const GoldenCase& c = GetParam();
  auto reloaded = api::EngineBuilder::Open(GoldenPath(c));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value()->Describe().rfind(
                std::string(c.backend) + "(shards=" +
                    std::to_string(c.num_shards) + ",",
                0),
            0u)
      << reloaded.value()->Describe();
  auto fresh = BuildGolden(c);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(reloaded.value()->db().size(), fresh->db().size());
  for (SetId id = 0; id < 20; ++id) {
    auto expected = fresh->Knn(fresh->db().set(id), 5);
    auto actual = reloaded.value()->Knn(fresh->db().set(id), 5);
    ASSERT_EQ(expected.hits.size(), actual.hits.size()) << "q=" << id;
    for (size_t i = 0; i < expected.hits.size(); ++i) {
      EXPECT_EQ(expected.hits[i].first, actual.hits[i].first);
      EXPECT_DOUBLE_EQ(expected.hits[i].second, actual.hits[i].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Versions, SnapshotGoldenTest,
    ::testing::Values(GoldenCase{"golden_v1.les3snap", "les3", 1},
                      GoldenCase{"golden_v2.les3snap", "sharded_les3", 3}),
    [](const auto& info) {
      return std::string(info.param.num_shards == 1 ? "V1" : "V2");
    });

TEST(SnapshotGoldenVersionTest, BumpedVersionHeaderIsRejectedWithClearError) {
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(GoldenPath({"golden_v1.les3snap", "les3", 1}),
                            &bytes)
                  .ok());
  // The u32 version sits right after the 8-byte magic; write one beyond
  // the newest version this build reads (v2 is valid — sharded).
  bytes[8] = static_cast<uint8_t>(kMaxSnapshotVersion + 1);
  auto result = DecodeSnapshot(bytes.data(), bytes.size());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The message must tell the operator what happened and what to do.
  EXPECT_NE(result.status().message().find("unsupported snapshot version"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("re-save"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace persist
}  // namespace les3

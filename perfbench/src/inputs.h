// Seeded benchmark inputs: the dataset, the read query pool, the per-
// connection read streams and the write stream. Everything the server ever
// sees is generated here from the run's seed, and the same seed yields the
// same bytes (every run checks it by generating them again).

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/database.h"
#include "core/set_record.h"
#include "util/random.h"

namespace perfbench {

enum class WriteKind : uint8_t { kInsert = 0, kDelete = 1, kUpdate = 2 };

struct WriteOp {
  WriteKind kind = WriteKind::kInsert;
  les3::SetId target = 0;  // kDelete / kUpdate: an id of the generated db
  les3::SetRecord set;     // kInsert / kUpdate: content unique in the run
};

/// The read pool's source: an endless seeded sequence of distinct queries,
/// database sets with one token replaced by a uniformly drawn one, of
/// sizes in [min_size, max_size]. A pool extended to N queries holds the
/// same N queries however many Extend calls it took.
class QueryStream {
 public:
  QueryStream(uint64_t seed, size_t min_size, size_t max_size);

  /// Appends the next `count` queries of the sequence to `*pool`.
  void Extend(const les3::SetDatabase& db, size_t count,
              les3::SetDatabase* pool);

 private:
  les3::Rng rng_;
  size_t min_size_;
  size_t max_size_;
  std::unordered_set<uint64_t> seen_;
};

struct InputSpec {
  /// Distinct read queries to generate first, of these sizes.
  size_t num_queries = 0;
  size_t min_query_size = 1;
  size_t max_query_size = SIZE_MAX;
  /// Per-connection Zipf streams over the query pool (0 connections: none).
  size_t stream_connections = 0;
  size_t stream_length = 0;
  double zipf_exponent = 1.0;
  /// Write ops, Insert/Delete/Update at 1:1:1.
  size_t num_writes = 0;
};

struct Inputs {
  les3::SetDatabase db;
  les3::SetDatabase queries;  // the read pool, one flat arena
  QueryStream more_queries{0, 1, SIZE_MAX};  // where `queries` continues
  std::vector<std::vector<uint32_t>> streams;  // indices into `queries`
  std::vector<WriteOp> writes;
};

/// The KOSARAK analog (datagen::GenerateAnalog) plus the streams above.
/// The query pool is the first num_queries of the seed's QueryStream, so
/// no two pool entries are equal. Inserted and updated contents are also
/// perturbed database sets, distinct from every database set, so each
/// inserted id is the only similarity-1 answer to its own content.
Inputs MakeInputs(uint64_t seed, const InputSpec& spec);

/// Whether two generations are the same input, token for token: their
/// canonical byte encodings (Digest's input) would be byte-identical.
bool Identical(const Inputs& a, const Inputs& b);

/// 64-bit FNV-1a digest of the canonical byte encoding of every generated
/// input, in generation order (little-endian u32 counts, tokens, ids).
uint64_t Digest(const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_

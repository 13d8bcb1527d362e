// A from-scratch Roaring-style compressed bitmap (Lemire et al., reference
// [41] of the paper). 32-bit values are chunked by their high 16 bits; each
// chunk is stored in one of three container kinds:
//
//   - Array:  sorted uint16 list, used while cardinality <= 4096;
//   - Bitset: 1024 x uint64 dense bitmap, used above 4096;
//   - Run:    sorted (start, length-1) intervals, chosen by RunOptimize()
//             when it is the smallest encoding.
//
// The TGM stores one Roaring bitmap per token (the set of groups containing
// that token), so membership iteration and intersection cardinality are the
// hot operations.

#ifndef LES3_BITMAP_ROARING_H_
#define LES3_BITMAP_ROARING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "util/status.h"

namespace les3 {

namespace persist {
class ByteWriter;
class ByteReader;
}  // namespace persist

namespace bitmap {

class BatchGroupCountAccumulator;
struct QueryWeight;

namespace internal {

/// Cardinality threshold at which an array container becomes a bitset.
inline constexpr size_t kArrayMaxCardinality = 4096;

struct ArrayContainer {
  std::vector<uint16_t> values;  // sorted, unique
};

struct BitsetContainer {
  std::vector<uint64_t> words;  // always 1024 words
  uint32_t cardinality = 0;
  BitsetContainer() : words(1024, 0) {}
};

struct RunContainer {
  struct Run {
    uint16_t start;
    uint16_t length;  // run covers [start, start + length] inclusive
  };
  std::vector<Run> runs;  // sorted, non-overlapping, non-adjacent
};

using Container = std::variant<ArrayContainer, BitsetContainer, RunContainer>;

}  // namespace internal

/// \brief Compressed bitmap over uint32 values.
class Roaring {
 public:
  Roaring() = default;

  /// Bulk-builds from a sorted, duplicate-free list of values.
  static Roaring FromSorted(const std::vector<uint32_t>& sorted_values);

  /// Inserts `value` (no-op if present).
  void Add(uint32_t value);

  /// Removes `value`; returns whether it was present. A container left
  /// empty is dropped (Empty() tests keys_, and Deserialize rejects empty
  /// containers, so none may linger). A bitset whose cardinality falls
  /// back under the array threshold stays a bitset — mirroring Add, which
  /// never converts downward — and remains a legal serialized form.
  bool Remove(uint32_t value);

  bool Contains(uint32_t value) const;

  uint64_t Cardinality() const;

  bool Empty() const { return keys_.empty(); }

  /// |this AND other|.
  uint64_t AndCardinality(const Roaring& other) const;

  /// \brief Direct-array accumulation kernel: adds `weight` to
  /// counts[v] for every value v, container-at-a-time (see
  /// bitmap/kernels.h) — array containers bulk-add, bitset containers scan
  /// words, runs add per element. `counts` has `counts_size` entries (at
  /// least max-value+1); the size bounds the vectorized bitset kernel's
  /// whole-word writes.
  void AccumulateInto(uint32_t* counts, size_t counts_size,
                      uint32_t weight) const;

  /// \brief Fan-out accumulation for the TGM probe: decodes each container
  /// once and replays it into every subscriber's counter row with that
  /// subscriber's weight (subs[i].weight times into row subs[i].query).
  /// Run containers post difference-array ranges in O(runs). Every value
  /// must be < acc.num_groups(); every subs[i].query < acc.num_queries().
  void AccumulateIntoBatch(BatchGroupCountAccumulator& acc,
                           const QueryWeight* subs, size_t num_subs) const;

  /// \brief Sum of weights of the (value, weight) probes contained in this
  /// bitmap. `probes` must be sorted ascending by value; the kernel
  /// resolves each 64K chunk's container once instead of per probe.
  uint64_t WeightedIntersect(
      const std::pair<uint32_t, uint32_t>* probes, size_t n) const;

  /// |this OR other|.
  uint64_t OrCardinality(const Roaring& other) const;

  /// Converts containers to run encoding wherever that is smaller. Returns
  /// the number of containers converted.
  size_t RunOptimize();

  /// Calls fn(v) for every value v in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const;

  /// Approximate heap bytes of the container payloads (the quantity reported
  /// as "index size" in the benches).
  uint64_t MemoryBytes() const;

  bool operator==(const Roaring& other) const;

  /// All values, ascending (test/debug helper).
  std::vector<uint32_t> ToVector() const;

  /// \brief Serializes the exact container state — keys, kinds (array /
  /// bitset / run), payloads — so a reloaded bitmap is byte-identical on
  /// re-serialization (see docs/snapshot_format.md).
  void Serialize(persist::ByteWriter* writer) const;

  /// Bounds-checked inverse. Validates every structural invariant the
  /// kernels rely on (keys and array values strictly ascending, bitset
  /// cardinality matching its popcount, runs sorted / non-overlapping /
  /// non-adjacent) and rejects any value >= `universe_bound` — corrupted
  /// input yields a Status, never an out-of-range kernel write.
  static Result<Roaring> Deserialize(persist::ByteReader* reader,
                                     uint32_t universe_bound);

 private:
  internal::Container* FindContainer(uint16_t key);
  const internal::Container* FindContainer(uint16_t key) const;
  internal::Container& GetOrCreateContainer(uint16_t key);

  // Parallel arrays sorted by key (the high 16 bits).
  std::vector<uint16_t> keys_;
  std::vector<internal::Container> containers_;
};

// ---------------------------------------------------------------------------
// Template implementation.

namespace internal {

template <typename Fn>
void ForEachInContainer(const Container& c, uint32_t base, Fn&& fn) {
  if (const auto* a = std::get_if<ArrayContainer>(&c)) {
    for (uint16_t v : a->values) fn(base | v);
  } else if (const auto* b = std::get_if<BitsetContainer>(&c)) {
    for (uint32_t w = 0; w < 1024; ++w) {
      uint64_t bits = b->words[w];
      while (bits) {
        uint32_t low = (w << 6) + static_cast<uint32_t>(__builtin_ctzll(bits));
        fn(base | low);
        bits &= bits - 1;
      }
    }
  } else {
    const auto& runs = std::get<RunContainer>(c).runs;
    for (const auto& r : runs) {
      for (uint32_t v = r.start; v <= uint32_t(r.start) + r.length; ++v) {
        fn(base | v);
      }
    }
  }
}

}  // namespace internal

template <typename Fn>
void Roaring::ForEach(Fn&& fn) const {
  for (size_t i = 0; i < keys_.size(); ++i) {
    internal::ForEachInContainer(containers_[i],
                                 static_cast<uint32_t>(keys_[i]) << 16, fn);
  }
}

}  // namespace bitmap
}  // namespace les3

#endif  // LES3_BITMAP_ROARING_H_

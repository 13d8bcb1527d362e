// BitmapColumn — one TGM column (or HTGM row) behind a pluggable backend.
//
// The TGM stores one bitmap per token; which representation wins depends on
// the corpus. Compressed Roaring columns are compact on sparse/skewed data
// and turn dense columns into run containers, while a flat BitVector sized
// to the group universe trades memory (one bit per group per token,
// regardless of cardinality) for branch-free word-scan kernels that are
// fastest when most columns are dense. The backend is chosen per index via
// EngineOptions (api layer) and surfaces in Describe()/IndexBytes().
//
// Both backends feed the same batched accumulation kernels
// (bitmap/kernels.h), so the search layer is written once against this
// wrapper.

#ifndef LES3_BITMAP_BITMAP_COLUMN_H_
#define LES3_BITMAP_BITMAP_COLUMN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bitmap/bitvector.h"
#include "bitmap/kernels.h"
#include "bitmap/roaring.h"
#include "util/status.h"

namespace les3 {
namespace bitmap {

/// Storage representation of the TGM bitmap columns.
enum class BitmapBackend {
  kRoaring,    // compressed array/bitset/run containers (the default)
  kBitVector,  // flat dense bits over the value universe
};

/// Canonical backend name ("roaring", "bitvector").
std::string ToString(BitmapBackend backend);

/// Parses a canonical bitmap backend name; InvalidArgument otherwise.
Result<BitmapBackend> ParseBitmapBackend(const std::string& name);

/// \brief One bitmap column in the selected representation.
class BitmapColumn {
 public:
  explicit BitmapColumn(BitmapBackend backend = BitmapBackend::kRoaring) {
    if (backend == BitmapBackend::kBitVector) rep_.emplace<Dense>();
  }

  /// Bulk-builds from a sorted, duplicate-free list of values.
  static BitmapColumn FromSorted(BitmapBackend backend,
                                 const std::vector<uint32_t>& sorted_values);

  BitmapBackend backend() const {
    return std::holds_alternative<Roaring>(rep_) ? BitmapBackend::kRoaring
                                                 : BitmapBackend::kBitVector;
  }

  /// Inserts `value` (no-op if present). The dense backend grows its
  /// universe as needed.
  void Add(uint32_t value);

  /// Removes `value`; returns whether it was present. Used by the group
  /// maintenance path (tgm::Tgm::RecomputeGroupColumns) to drop stale
  /// bits left behind by Delete/Update.
  bool Remove(uint32_t value);

  bool Contains(uint32_t value) const;

  uint64_t Cardinality() const {
    if (const auto* r = std::get_if<Roaring>(&rep_)) return r->Cardinality();
    return std::get<Dense>(rep_).cardinality;
  }

  /// O(1) in both backends (Roaring::Cardinality walks every run, so the
  /// hot path must not test emptiness through it).
  bool Empty() const {
    if (const auto* r = std::get_if<Roaring>(&rep_)) return r->Empty();
    return std::get<Dense>(rep_).cardinality == 0;
  }

  /// Container-aware fan-out accumulation for the TGM probe (see
  /// bitmap/kernels.h): decodes this column once and adds subs[i].weight
  /// into row subs[i].query of the accumulator for every value. Values
  /// must be < acc.num_groups().
  void AccumulateIntoBatch(BatchGroupCountAccumulator& acc,
                           const QueryWeight* subs, size_t num_subs) const {
    if (const auto* r = std::get_if<Roaring>(&rep_)) {
      r->AccumulateIntoBatch(acc, subs, num_subs);
    } else {
      const BitVector& bits = std::get<Dense>(rep_).bits;
      for (size_t s = 0; s < num_subs; ++s) {
        bits.AccumulateInto(acc.row(subs[s].query), subs[s].weight);
      }
    }
  }

  /// Direct-array variant; `counts` has `counts_size` entries and must
  /// cover the value universe (the size bounds the vectorized kernels'
  /// whole-word writes, see bitmap/kernels.h).
  void AccumulateInto(uint32_t* counts, size_t counts_size,
                      uint32_t weight) const {
    if (const auto* r = std::get_if<Roaring>(&rep_)) {
      r->AccumulateInto(counts, counts_size, weight);
    } else {
      std::get<Dense>(rep_).bits.AccumulateInto(counts, weight);
    }
  }

  /// Sum of weights of the sorted (value, weight) probes present here.
  uint64_t WeightedIntersect(const std::pair<uint32_t, uint32_t>* probes,
                             size_t n) const {
    if (const auto* r = std::get_if<Roaring>(&rep_)) {
      return r->WeightedIntersect(probes, n);
    }
    return std::get<Dense>(rep_).bits.WeightedIntersect(probes, n);
  }

  /// Run-encodes Roaring containers where smaller; no-op for the dense
  /// backend. Returns the number of containers converted.
  size_t RunOptimize() {
    auto* r = std::get_if<Roaring>(&rep_);
    return r != nullptr ? r->RunOptimize() : 0;
  }

  uint64_t MemoryBytes() const {
    if (const auto* r = std::get_if<Roaring>(&rep_)) return r->MemoryBytes();
    return std::get<Dense>(rep_).bits.MemoryBytes();
  }

  /// Calls fn(v) for every value v in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (const auto* r = std::get_if<Roaring>(&rep_)) {
      r->ForEach(fn);
    } else {
      std::get<Dense>(rep_).bits.ForEach(
          [&](uint64_t v) { fn(static_cast<uint32_t>(v)); });
    }
  }

  /// All values, ascending (test/debug helper).
  std::vector<uint32_t> ToVector() const;

  /// Serializes a backend tag plus the active representation's exact state
  /// (docs/snapshot_format.md); re-serializing a deserialized column is
  /// byte-identical.
  void Serialize(persist::ByteWriter* writer) const;

  /// Bounds-checked inverse: validates the representation invariants and
  /// rejects any stored value >= `universe_bound` (the group count), so a
  /// corrupted column can never drive the accumulation kernels out of the
  /// counter array.
  static Result<BitmapColumn> Deserialize(persist::ByteReader* reader,
                                          uint32_t universe_bound);

 private:
  // BitVector has no cardinality counter of its own, so the dense
  // alternative carries one (Count() would be a full word scan).
  struct Dense {
    BitVector bits;
    uint64_t cardinality = 0;
  };
  // Only the active representation is stored: a TGM holds one column per
  // token, so dead members would dominate the fixed footprint.
  std::variant<Roaring, Dense> rep_;
};

}  // namespace bitmap
}  // namespace les3

#endif  // LES3_BITMAP_BITMAP_COLUMN_H_

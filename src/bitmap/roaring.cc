#include "bitmap/roaring.h"

#include <algorithm>

#include "bitmap/kernels.h"
#include "persist/bytes.h"
#include "util/logging.h"

namespace les3 {
namespace bitmap {

using internal::ArrayContainer;
using internal::BitsetContainer;
using internal::Container;
using internal::kArrayMaxCardinality;
using internal::RunContainer;

namespace {

uint32_t ContainerCardinality(const Container& c) {
  if (const auto* a = std::get_if<ArrayContainer>(&c)) {
    return static_cast<uint32_t>(a->values.size());
  }
  if (const auto* b = std::get_if<BitsetContainer>(&c)) {
    return b->cardinality;
  }
  const auto& runs = std::get<RunContainer>(c).runs;
  uint32_t total = 0;
  for (const auto& r : runs) total += static_cast<uint32_t>(r.length) + 1;
  return total;
}

bool ContainerContains(const Container& c, uint16_t low) {
  if (const auto* a = std::get_if<ArrayContainer>(&c)) {
    return std::binary_search(a->values.begin(), a->values.end(), low);
  }
  if (const auto* b = std::get_if<BitsetContainer>(&c)) {
    return (b->words[low >> 6] >> (low & 63)) & 1ULL;
  }
  const auto& runs = std::get<RunContainer>(c).runs;
  // First run whose start is > low, then check the previous one.
  auto it = std::upper_bound(
      runs.begin(), runs.end(), low,
      [](uint16_t v, const RunContainer::Run& r) { return v < r.start; });
  if (it == runs.begin()) return false;
  --it;
  return low <= static_cast<uint32_t>(it->start) + it->length;
}

BitsetContainer ArrayToBitset(const ArrayContainer& a) {
  BitsetContainer b;
  for (uint16_t v : a.values) b.words[v >> 6] |= (1ULL << (v & 63));
  b.cardinality = static_cast<uint32_t>(a.values.size());
  return b;
}

std::vector<uint16_t> ContainerToValues(const Container& c) {
  std::vector<uint16_t> out;
  out.reserve(ContainerCardinality(c));
  internal::ForEachInContainer(
      c, 0, [&](uint32_t v) { out.push_back(static_cast<uint16_t>(v)); });
  return out;
}

uint32_t CountRuns(const std::vector<uint16_t>& sorted) {
  if (sorted.empty()) return 0;
  uint32_t runs = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] != sorted[i - 1] + 1) ++runs;
  }
  return runs;
}

uint64_t ContainerBytes(const Container& c) {
  if (const auto* a = std::get_if<ArrayContainer>(&c)) {
    return a->values.size() * sizeof(uint16_t);
  }
  if (std::holds_alternative<BitsetContainer>(c)) {
    return 1024 * sizeof(uint64_t);
  }
  return std::get<RunContainer>(c).runs.size() * sizeof(RunContainer::Run);
}

uint64_t AndArrayArray(const ArrayContainer& x, const ArrayContainer& y) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < x.values.size() && j < y.values.size()) {
    if (x.values[i] < y.values[j]) {
      ++i;
    } else if (x.values[i] > y.values[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

uint64_t AndBitsetBitset(const BitsetContainer& x, const BitsetContainer& y) {
  uint64_t count = 0;
  for (size_t w = 0; w < 1024; ++w) {
    count += __builtin_popcountll(x.words[w] & y.words[w]);
  }
  return count;
}

uint64_t AndGeneric(const Container& x, const Container& y) {
  // Fast paths for the common pairings; anything involving a run container
  // falls back to probing with the smaller side's values.
  if (const auto* ax = std::get_if<ArrayContainer>(&x)) {
    if (const auto* ay = std::get_if<ArrayContainer>(&y)) {
      return AndArrayArray(*ax, *ay);
    }
    uint64_t count = 0;
    for (uint16_t v : ax->values) count += ContainerContains(y, v);
    return count;
  }
  if (std::holds_alternative<ArrayContainer>(y)) return AndGeneric(y, x);
  if (const auto* bx = std::get_if<BitsetContainer>(&x)) {
    if (const auto* by = std::get_if<BitsetContainer>(&y)) {
      return AndBitsetBitset(*bx, *by);
    }
  }
  // At least one run container: iterate the smaller cardinality side.
  const Container& probe =
      ContainerCardinality(x) <= ContainerCardinality(y) ? x : y;
  const Container& other = (&probe == &x) ? y : x;
  uint64_t count = 0;
  internal::ForEachInContainer(probe, 0, [&](uint32_t v) {
    count += ContainerContains(other, static_cast<uint16_t>(v));
  });
  return count;
}

}  // namespace

Container* Roaring::FindContainer(uint16_t key) {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return &containers_[static_cast<size_t>(it - keys_.begin())];
}

const Container* Roaring::FindContainer(uint16_t key) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return &containers_[static_cast<size_t>(it - keys_.begin())];
}

Container& Roaring::GetOrCreateContainer(uint16_t key) {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  size_t idx = static_cast<size_t>(it - keys_.begin());
  if (it == keys_.end() || *it != key) {
    keys_.insert(it, key);
    containers_.insert(containers_.begin() + idx, ArrayContainer{});
  }
  return containers_[idx];
}

Roaring Roaring::FromSorted(const std::vector<uint32_t>& sorted_values) {
  Roaring r;
  size_t i = 0;
  while (i < sorted_values.size()) {
    uint16_t key = static_cast<uint16_t>(sorted_values[i] >> 16);
    size_t j = i;
    while (j < sorted_values.size() &&
           static_cast<uint16_t>(sorted_values[j] >> 16) == key) {
      ++j;
    }
    size_t count = j - i;
    r.keys_.push_back(key);
    if (count <= kArrayMaxCardinality) {
      ArrayContainer a;
      a.values.reserve(count);
      for (size_t p = i; p < j; ++p) {
        a.values.push_back(static_cast<uint16_t>(sorted_values[p] & 0xFFFF));
      }
      r.containers_.push_back(std::move(a));
    } else {
      BitsetContainer b;
      for (size_t p = i; p < j; ++p) {
        uint16_t low = static_cast<uint16_t>(sorted_values[p] & 0xFFFF);
        b.words[low >> 6] |= (1ULL << (low & 63));
      }
      b.cardinality = static_cast<uint32_t>(count);
      r.containers_.push_back(std::move(b));
    }
    i = j;
  }
  return r;
}

void Roaring::Add(uint32_t value) {
  uint16_t key = static_cast<uint16_t>(value >> 16);
  uint16_t low = static_cast<uint16_t>(value & 0xFFFF);
  Container& c = GetOrCreateContainer(key);
  if (auto* a = std::get_if<ArrayContainer>(&c)) {
    auto it = std::lower_bound(a->values.begin(), a->values.end(), low);
    if (it != a->values.end() && *it == low) return;
    if (a->values.size() >= kArrayMaxCardinality) {
      BitsetContainer b = ArrayToBitset(*a);
      b.words[low >> 6] |= (1ULL << (low & 63));
      ++b.cardinality;
      c = std::move(b);
      return;
    }
    a->values.insert(it, low);
  } else if (auto* b = std::get_if<BitsetContainer>(&c)) {
    uint64_t mask = 1ULL << (low & 63);
    if (!(b->words[low >> 6] & mask)) {
      b->words[low >> 6] |= mask;
      ++b->cardinality;
    }
  } else {
    auto& runs = std::get<RunContainer>(c).runs;
    if (ContainerContains(c, low)) return;
    // Insert a singleton run, merging with neighbours when adjacent.
    auto it = std::lower_bound(
        runs.begin(), runs.end(), low,
        [](const RunContainer::Run& r, uint16_t v) { return r.start < v; });
    bool merged = false;
    if (it != runs.begin()) {
      auto prev = it - 1;
      if (static_cast<uint32_t>(prev->start) + prev->length + 1 == low) {
        ++prev->length;
        merged = true;
        it = prev;
      }
    }
    if (!merged && it != runs.end() && low + 1 == it->start) {
      it->start = low;
      ++it->length;
      merged = true;
    }
    if (merged) {
      // The grown run may now touch its successor.
      auto next = it + 1;
      if (next != runs.end() &&
          static_cast<uint32_t>(it->start) + it->length + 1 == next->start) {
        it->length = static_cast<uint16_t>(it->length + next->length + 1);
        runs.erase(next);
      }
      return;
    }
    runs.insert(it, RunContainer::Run{low, 0});
  }
}

bool Roaring::Remove(uint32_t value) {
  uint16_t key = static_cast<uint16_t>(value >> 16);
  uint16_t low = static_cast<uint16_t>(value & 0xFFFF);
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return false;
  size_t idx = static_cast<size_t>(it - keys_.begin());
  Container& c = containers_[idx];
  bool now_empty = false;
  if (auto* a = std::get_if<ArrayContainer>(&c)) {
    auto vit = std::lower_bound(a->values.begin(), a->values.end(), low);
    if (vit == a->values.end() || *vit != low) return false;
    a->values.erase(vit);
    now_empty = a->values.empty();
  } else if (auto* b = std::get_if<BitsetContainer>(&c)) {
    uint64_t mask = 1ULL << (low & 63);
    if (!(b->words[low >> 6] & mask)) return false;
    b->words[low >> 6] &= ~mask;
    --b->cardinality;
    now_empty = b->cardinality == 0;
  } else {
    auto& runs = std::get<RunContainer>(c).runs;
    // Last run with start <= low.
    auto rit = std::upper_bound(
        runs.begin(), runs.end(), low,
        [](uint16_t v, const RunContainer::Run& r) { return v < r.start; });
    if (rit == runs.begin()) return false;
    --rit;
    uint32_t end = static_cast<uint32_t>(rit->start) + rit->length;
    if (low > end) return false;
    if (rit->length == 0) {
      runs.erase(rit);
    } else if (low == rit->start) {
      ++rit->start;
      --rit->length;
    } else if (low == end) {
      --rit->length;
    } else {
      // Split [start, end] into [start, low-1] and [low+1, end].
      RunContainer::Run tail{static_cast<uint16_t>(low + 1),
                             static_cast<uint16_t>(end - low - 1)};
      rit->length = static_cast<uint16_t>(low - 1 - rit->start);
      runs.insert(rit + 1, tail);
    }
    now_empty = runs.empty();
  }
  if (now_empty) {
    keys_.erase(keys_.begin() + idx);
    containers_.erase(containers_.begin() + idx);
  }
  return true;
}

bool Roaring::Contains(uint32_t value) const {
  const Container* c = FindContainer(static_cast<uint16_t>(value >> 16));
  if (c == nullptr) return false;
  return ContainerContains(*c, static_cast<uint16_t>(value & 0xFFFF));
}

uint64_t Roaring::Cardinality() const {
  uint64_t total = 0;
  for (const auto& c : containers_) total += ContainerCardinality(c);
  return total;
}

uint64_t Roaring::AndCardinality(const Roaring& other) const {
  uint64_t total = 0;
  size_t i = 0, j = 0;
  while (i < keys_.size() && j < other.keys_.size()) {
    if (keys_[i] < other.keys_[j]) {
      ++i;
    } else if (keys_[i] > other.keys_[j]) {
      ++j;
    } else {
      total += AndGeneric(containers_[i], other.containers_[j]);
      ++i;
      ++j;
    }
  }
  return total;
}

uint64_t Roaring::OrCardinality(const Roaring& other) const {
  return Cardinality() + other.Cardinality() - AndCardinality(other);
}

void Roaring::AccumulateInto(uint32_t* counts, size_t counts_size,
                             uint32_t weight) const {
  for (size_t i = 0; i < keys_.size(); ++i) {
    uint32_t base = static_cast<uint32_t>(keys_[i]) << 16;
    const Container& c = containers_[i];
    if (const auto* a = std::get_if<ArrayContainer>(&c)) {
      ArrayAccumulate(a->values.data(), a->values.size(), base, counts,
                      weight);
    } else if (const auto* b = std::get_if<BitsetContainer>(&c)) {
      AccumulateWords(b->words.data(), b->words.size(), base, counts, weight,
                      counts_size);
    } else {
      for (const auto& r : std::get<RunContainer>(c).runs) {
        // Counted loop, not `v <= last`: a run ending at value 0xFFFFFFFF
        // would wrap the inclusive bound and never terminate.
        uint32_t v = base + r.start;
        for (uint32_t n = r.length;; --n) {
          counts[v++] += weight;
          if (n == 0) break;
        }
      }
    }
  }
}

void Roaring::AccumulateIntoBatch(BatchGroupCountAccumulator& acc,
                                  const QueryWeight* subs,
                                  size_t num_subs) const {
  // Container-outer, subscriber-inner: each container's payload is decoded
  // (or its word span streamed) once per subscriber but resolved from the
  // variant only once, and stays cache-hot across the fan-out.
  for (size_t i = 0; i < keys_.size(); ++i) {
    uint32_t base = static_cast<uint32_t>(keys_[i]) << 16;
    const Container& c = containers_[i];
    if (const auto* a = std::get_if<ArrayContainer>(&c)) {
      for (size_t s = 0; s < num_subs; ++s) {
        ArrayAccumulate(a->values.data(), a->values.size(), base,
                        acc.row(subs[s].query), subs[s].weight);
      }
    } else if (const auto* b = std::get_if<BitsetContainer>(&c)) {
      for (size_t s = 0; s < num_subs; ++s) {
        AccumulateWords(b->words.data(), b->words.size(), base,
                        acc.row(subs[s].query), subs[s].weight,
                        acc.num_groups());
      }
    } else {
      for (const auto& r : std::get<RunContainer>(c).runs) {
        for (size_t s = 0; s < num_subs; ++s) {
          acc.AddRange(subs[s].query, base + r.start,
                       base + r.start + r.length, subs[s].weight);
        }
      }
    }
  }
}

uint64_t Roaring::WeightedIntersect(
    const std::pair<uint32_t, uint32_t>* probes, size_t n) const {
  uint64_t total = 0;
  const Container* container = nullptr;
  uint32_t current_key = 0;
  bool have_key = false;
  for (size_t i = 0; i < n; ++i) {
    uint32_t key = probes[i].first >> 16;
    if (!have_key || key != current_key) {
      container = FindContainer(static_cast<uint16_t>(key));
      current_key = key;
      have_key = true;
    }
    if (container != nullptr &&
        ContainerContains(*container,
                          static_cast<uint16_t>(probes[i].first & 0xFFFF))) {
      total += probes[i].second;
    }
  }
  return total;
}

size_t Roaring::RunOptimize() {
  size_t converted = 0;
  for (auto& c : containers_) {
    if (std::holds_alternative<RunContainer>(c)) continue;
    std::vector<uint16_t> values = ContainerToValues(c);
    uint32_t num_runs = CountRuns(values);
    uint64_t run_bytes = num_runs * sizeof(RunContainer::Run);
    if (run_bytes < ContainerBytes(c)) {
      RunContainer rc;
      rc.runs.reserve(num_runs);
      size_t i = 0;
      while (i < values.size()) {
        size_t j = i;
        while (j + 1 < values.size() && values[j + 1] == values[j] + 1) ++j;
        rc.runs.push_back(RunContainer::Run{
            values[i], static_cast<uint16_t>(j - i)});
        i = j + 1;
      }
      c = std::move(rc);
      ++converted;
    }
  }
  return converted;
}

uint64_t Roaring::MemoryBytes() const {
  uint64_t total = keys_.size() * sizeof(uint16_t);
  for (const auto& c : containers_) total += ContainerBytes(c);
  return total;
}

bool Roaring::operator==(const Roaring& other) const {
  return ToVector() == other.ToVector();
}

std::vector<uint32_t> Roaring::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(Cardinality());
  ForEach([&](uint32_t v) { out.push_back(v); });
  return out;
}

namespace {

// Container kind tags in the serialized form (docs/snapshot_format.md).
constexpr uint8_t kArrayTag = 0;
constexpr uint8_t kBitsetTag = 1;
constexpr uint8_t kRunTag = 2;

}  // namespace

void Roaring::Serialize(persist::ByteWriter* writer) const {
  writer->WriteU32(static_cast<uint32_t>(keys_.size()));
  for (size_t i = 0; i < keys_.size(); ++i) {
    writer->WriteU16(keys_[i]);
    const Container& c = containers_[i];
    if (const auto* a = std::get_if<ArrayContainer>(&c)) {
      writer->WriteU8(kArrayTag);
      writer->WriteU32(static_cast<uint32_t>(a->values.size()));
      for (uint16_t v : a->values) writer->WriteU16(v);
    } else if (const auto* b = std::get_if<BitsetContainer>(&c)) {
      writer->WriteU8(kBitsetTag);
      writer->WriteU32(b->cardinality);
      for (uint64_t w : b->words) writer->WriteU64(w);
    } else {
      const auto& runs = std::get<RunContainer>(c).runs;
      writer->WriteU8(kRunTag);
      writer->WriteU32(static_cast<uint32_t>(runs.size()));
      for (const auto& r : runs) {
        writer->WriteU16(r.start);
        writer->WriteU16(r.length);
      }
    }
  }
}

Result<Roaring> Roaring::Deserialize(persist::ByteReader* reader,
                                     uint32_t universe_bound) {
  uint32_t num_containers = 0;
  LES3_RETURN_NOT_OK(reader->ReadU32(&num_containers));
  if (num_containers > 65536) {
    return Status::InvalidArgument("roaring bitmap claims " +
                                   std::to_string(num_containers) +
                                   " containers (max 65536)");
  }
  Roaring r;
  r.keys_.reserve(num_containers);
  r.containers_.reserve(num_containers);
  uint32_t prev_key = 0;
  for (uint32_t i = 0; i < num_containers; ++i) {
    uint16_t key = 0;
    uint8_t tag = 0;
    LES3_RETURN_NOT_OK(reader->ReadU16(&key));
    LES3_RETURN_NOT_OK(reader->ReadU8(&tag));
    if (i > 0 && key <= prev_key) {
      return Status::InvalidArgument(
          "roaring container keys not strictly ascending");
    }
    prev_key = key;
    uint32_t base = static_cast<uint32_t>(key) << 16;
    uint32_t max_low = 0;  // highest low-16 value present in this container
    if (tag == kArrayTag) {
      uint32_t count = 0;
      LES3_RETURN_NOT_OK(reader->ReadU32(&count));
      // Strictly ascending uint16 values bound the count at 65536; checking
      // first also caps the allocation below at the container maximum.
      if (count == 0 || count > 65536) {
        return Status::InvalidArgument("array container count " +
                                       std::to_string(count) +
                                       " outside [1, 65536]");
      }
      ArrayContainer a;
      a.values.resize(count);
      for (uint32_t j = 0; j < count; ++j) {
        LES3_RETURN_NOT_OK(reader->ReadU16(&a.values[j]));
        if (j > 0 && a.values[j] <= a.values[j - 1]) {
          return Status::InvalidArgument(
              "array container values not strictly ascending");
        }
      }
      max_low = a.values.back();
      r.containers_.push_back(std::move(a));
    } else if (tag == kBitsetTag) {
      BitsetContainer b;
      LES3_RETURN_NOT_OK(reader->ReadU32(&b.cardinality));
      uint64_t popcount = 0;
      for (uint32_t w = 0; w < 1024; ++w) {
        LES3_RETURN_NOT_OK(reader->ReadU64(&b.words[w]));
        popcount += __builtin_popcountll(b.words[w]);
        if (b.words[w] != 0) {
          max_low = (w << 6) + (63 - __builtin_clzll(b.words[w]));
        }
      }
      // The kernels and cardinality accounting trust this counter; a
      // mismatch is corruption, not a tolerable inconsistency.
      if (popcount == 0 || popcount != b.cardinality) {
        return Status::InvalidArgument(
            "bitset container cardinality does not match its popcount");
      }
      r.containers_.push_back(std::move(b));
    } else if (tag == kRunTag) {
      uint32_t num_runs = 0;
      LES3_RETURN_NOT_OK(reader->ReadU32(&num_runs));
      if (num_runs == 0 || num_runs > 32768) {
        return Status::InvalidArgument("run container run count " +
                                       std::to_string(num_runs) +
                                       " outside [1, 32768]");
      }
      RunContainer rc;
      rc.runs.resize(num_runs);
      int64_t prev_end = -2;  // runs must be sorted and non-adjacent
      for (uint32_t j = 0; j < num_runs; ++j) {
        LES3_RETURN_NOT_OK(reader->ReadU16(&rc.runs[j].start));
        LES3_RETURN_NOT_OK(reader->ReadU16(&rc.runs[j].length));
        int64_t start = rc.runs[j].start;
        int64_t end = start + rc.runs[j].length;
        if (start <= prev_end + 1) {
          return Status::InvalidArgument(
              "run container runs overlap, touch, or are unsorted");
        }
        if (end > 65535) {
          return Status::InvalidArgument("run exceeds the container range");
        }
        prev_end = end;
      }
      max_low = static_cast<uint32_t>(prev_end);
      r.containers_.push_back(std::move(rc));
    } else {
      return Status::InvalidArgument("unknown roaring container tag " +
                                     std::to_string(tag));
    }
    r.keys_.push_back(key);
    // One bound check per container: base | max_low is its largest value.
    if ((base | max_low) >= universe_bound) {
      return Status::OutOfRange(
          "bitmap value " + std::to_string(base | max_low) +
          " exceeds universe bound " + std::to_string(universe_bound));
    }
  }
  return r;
}

}  // namespace bitmap
}  // namespace les3

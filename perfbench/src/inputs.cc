#include "inputs.h"

#include <algorithm>
#include <unordered_set>

#include "datagen/analogs.h"
#include "datagen/zipf.h"
#include "util/random.h"

namespace perfbench {

using les3::Rng;
using les3::SetDatabase;
using les3::SetRecord;
using les3::SetView;
using les3::TokenId;

namespace {

/// 64-bit FNV-1a over the tokens. Two contents with one key count as equal
/// (the later draw is rejected), which keeps generation deterministic.
uint64_t Key(SetView set) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (TokenId t : set) {
    h ^= t;
    h *= 0x100000001b3ULL;
  }
  return h ^ set.size();
}

/// A database set with one token replaced by a uniformly drawn token.
SetRecord Perturb(const SetDatabase& db, Rng* rng) {
  for (;;) {
    SetView base = db.set(static_cast<les3::SetId>(rng->Uniform(db.size())));
    if (base.empty()) continue;
    const size_t replaced = rng->Uniform(base.size());
    const auto token = static_cast<TokenId>(rng->Uniform(db.num_tokens()));
    std::vector<TokenId> tokens;
    tokens.reserve(base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      if (i != replaced) tokens.push_back(base[i]);
    }
    auto at = std::lower_bound(tokens.begin(), tokens.end(), token);
    if (at == tokens.end() || *at != token) tokens.insert(at, token);
    return SetRecord::FromSortedTokens(std::move(tokens));
  }
}

/// Draws a perturbed set whose content is not in `seen`, and records it.
SetRecord Fresh(const SetDatabase& db, Rng* rng,
                std::unordered_set<uint64_t>* seen) {
  for (;;) {
    SetRecord set = Perturb(db, rng);
    if (seen->insert(Key(set.view())).second) return set;
  }
}

/// FNV-1a over a little-endian byte stream.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Byte(uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Set(SetView set) {
    U32(static_cast<uint32_t>(set.size()));
    for (TokenId t : set) U32(t);
  }
  void Sets(const SetDatabase& db) {
    U32(static_cast<uint32_t>(db.size()));
    for (les3::SetId id = 0; id < db.size(); ++id) Set(db.set(id));
  }
};

bool SameSet(SetView a, SetView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool SameSets(const SetDatabase& a, const SetDatabase& b) {
  if (a.size() != b.size()) return false;
  for (les3::SetId id = 0; id < a.size(); ++id) {
    if (!SameSet(a.set(id), b.set(id))) return false;
  }
  return true;
}

}  // namespace

QueryStream::QueryStream(uint64_t seed, size_t min_size, size_t max_size)
    : rng_(seed ^ 0x9e7ce5e7a11ULL), min_size_(min_size), max_size_(max_size) {}

void QueryStream::Extend(const SetDatabase& db, size_t count,
                         SetDatabase* pool) {
  seen_.reserve(seen_.size() + count);
  const size_t target = pool->size() + count;
  while (pool->size() < target) {
    SetRecord q = Fresh(db, &rng_, &seen_);
    if (q.size() >= min_size_ && q.size() <= max_size_) pool->AddSet(q);
  }
}

Inputs MakeInputs(uint64_t seed, const InputSpec& spec) {
  Inputs in;
  in.db = les3::datagen::GenerateAnalog(
      les3::datagen::AnalogSpecByName("KOSARAK"), seed);

  Rng rng(seed ^ 0x5eed0f0e11a5ULL);
  in.queries = SetDatabase(in.db.num_tokens());
  in.more_queries =
      QueryStream(seed, spec.min_query_size, spec.max_query_size);
  in.more_queries.Extend(in.db, spec.num_queries, &in.queries);

  if (spec.stream_connections > 0 && !in.queries.empty()) {
    les3::datagen::ZipfSampler zipf(in.queries.size(), spec.zipf_exponent);
    for (size_t c = 0; c < spec.stream_connections; ++c) {
      Rng stream_rng = rng.Fork();
      std::vector<uint32_t> stream(spec.stream_length);
      for (uint32_t& q : stream) {
        q = static_cast<uint32_t>(zipf.Sample(&stream_rng));
      }
      in.streams.push_back(std::move(stream));
    }
  }

  if (spec.num_writes > 0) {
    std::unordered_set<uint64_t> contents;
    contents.reserve(in.db.size() + spec.num_writes);
    for (les3::SetId id = 0; id < in.db.size(); ++id) {
      contents.insert(Key(in.db.set(id)));
    }
    // Delete and Update each consume a distinct original id, so no write
    // ever targets a missing set and inserted ids are never touched again.
    size_t triples = (spec.num_writes + 2) / 3;
    std::vector<uint32_t> targets = rng.SampleWithoutReplacement(
        static_cast<uint32_t>(in.db.size()),
        static_cast<uint32_t>(std::min(in.db.size(), 2 * triples)));
    size_t next_target = 0;
    std::vector<WriteKind> order = {WriteKind::kInsert, WriteKind::kDelete,
                                    WriteKind::kUpdate};
    while (in.writes.size() < spec.num_writes) {
      rng.Shuffle(&order);
      for (WriteKind kind : order) {
        if (in.writes.size() == spec.num_writes) break;
        WriteOp op;
        op.kind = kind;
        if (kind != WriteKind::kInsert) op.target = targets[next_target++];
        if (kind != WriteKind::kDelete) op.set = Fresh(in.db, &rng, &contents);
        in.writes.push_back(std::move(op));
      }
    }
  }
  return in;
}

bool Identical(const Inputs& a, const Inputs& b) {
  if (!SameSets(a.db, b.db) || !SameSets(a.queries, b.queries) ||
      a.streams != b.streams || a.writes.size() != b.writes.size()) {
    return false;
  }
  for (size_t i = 0; i < a.writes.size(); ++i) {
    const WriteOp& x = a.writes[i];
    const WriteOp& y = b.writes[i];
    if (x.kind != y.kind || x.target != y.target ||
        !SameSet(x.set.view(), y.set.view())) {
      return false;
    }
  }
  return true;
}

uint64_t Digest(const Inputs& in) {
  Fnv f;
  f.Sets(in.db);
  f.Sets(in.queries);
  f.U32(static_cast<uint32_t>(in.streams.size()));
  for (const auto& stream : in.streams) {
    f.U32(static_cast<uint32_t>(stream.size()));
    for (uint32_t q : stream) f.U32(q);
  }
  f.U32(static_cast<uint32_t>(in.writes.size()));
  for (const WriteOp& op : in.writes) {
    f.Byte(static_cast<uint8_t>(op.kind));
    f.U32(op.target);
    f.Set(op.set.view());
  }
  return f.h;
}

}  // namespace perfbench

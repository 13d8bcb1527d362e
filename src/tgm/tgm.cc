#include "tgm/tgm.h"

#include <algorithm>
#include <numeric>

#include "bitmap/kernels.h"
#include "persist/bytes.h"
#include "util/logging.h"

namespace les3 {
namespace tgm {

template <typename SizeFn>
void Tgm::OrderMembersBySize(const SizeFn& size_of) {
  member_sizes_.resize(members_.size());
  for (GroupId g = 0; g < members_.size(); ++g) {
    auto& ids = members_[g];
    // Members arrive in ascending id; a stable sort on size alone yields
    // the canonical (size, id) order.
    std::stable_sort(ids.begin(), ids.end(), [&](SetId a, SetId b) {
      return size_of(a) < size_of(b);
    });
    auto& sizes = member_sizes_[g];
    sizes.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      sizes[i] = static_cast<uint32_t>(size_of(ids[i]));
    }
  }
}

Tgm::Tgm(const SetDatabase& db, const std::vector<GroupId>& assignment,
         uint32_t num_groups, bitmap::BitmapBackend bitmap_backend)
    : bitmap_backend_(bitmap_backend) {
  LES3_CHECK_EQ(assignment.size(), db.size());
  members_.resize(num_groups);
  group_of_ = assignment;
  for (SetId i = 0; i < db.size(); ++i) {
    LES3_CHECK_LT(assignment[i], num_groups);
    members_[assignment[i]].push_back(i);
  }
  OrderMembersBySize([&](SetId id) { return db.set_size(id); });
  for (const auto& m : members_) nonempty_groups_ += !m.empty();
  group_dirt_.assign(num_groups, 0);
  // Build columns via per-token sorted group lists (bulk build).
  std::vector<std::vector<GroupId>> token_groups(db.num_tokens());
  for (SetId i = 0; i < db.size(); ++i) {
    GroupId g = assignment[i];
    TokenId prev = static_cast<TokenId>(-1);
    for (TokenId t : db.set(i)) {
      if (t == prev) continue;
      prev = t;
      token_groups[t].push_back(g);
    }
  }
  columns_.reserve(db.num_tokens());
  for (auto& groups : token_groups) {
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
    columns_.push_back(bitmap::BitmapColumn::FromSorted(
        bitmap_backend_, std::vector<uint32_t>(groups.begin(), groups.end())));
    groups.clear();
    groups.shrink_to_fit();
  }
}

Tgm::MemberWindow Tgm::MembersInSizeWindow(GroupId g, size_t size_lo,
                                           size_t size_hi) const {
  const auto& ids = members_[g];
  const auto& sizes = member_sizes_[g];
  MemberWindow window;
  auto first = sizes.begin();
  if (size_lo > 0xFFFFFFFFu) {
    first = sizes.end();  // member sizes are 32-bit; nothing can qualify
  } else if (size_lo > 0) {
    first = std::lower_bound(sizes.begin(), sizes.end(),
                             static_cast<uint32_t>(size_lo));
  }
  auto last = sizes.end();
  if (size_hi < 0xFFFFFFFFu) {
    last = std::upper_bound(first, sizes.end(),
                            static_cast<uint32_t>(size_hi));
  }
  window.begin = ids.data() + (first - sizes.begin());
  window.end = ids.data() + (last - sizes.begin());
  window.sizes = sizes.data() + (first - sizes.begin());
  window.skipped = ids.size() - window.count();
  return window;
}

size_t Tgm::MatchedCounts(SetView query, std::vector<uint32_t>* counts) const {
  std::vector<size_t> columns_visited;
  MatchedCandidatesBatch(&query, 1, /*min_counts=*/nullptr, counts,
                         /*candidates=*/nullptr, &columns_visited);
  return columns_visited[0];
}

size_t Tgm::MatchedCandidates(SetView query, uint32_t min_count,
                              std::vector<uint32_t>* counts,
                              std::vector<GroupId>* candidates) const {
  std::vector<std::vector<GroupId>> rows;
  std::vector<size_t> columns_visited;
  MatchedCandidatesBatch(&query, 1, &min_count, counts, &rows,
                         &columns_visited);
  *candidates = std::move(rows[0]);
  return columns_visited[0];
}

namespace {

/// One entry of the inverted batch plan: query `query` wants column
/// `token` folded into its row with weight `weight`.
struct TokenSubscriber {
  TokenId token;
  uint32_t query;
  uint32_t weight;
};

}  // namespace

size_t Tgm::MatchedCandidatesBatch(
    const SetView* queries, size_t num_queries, const uint32_t* min_counts,
    std::vector<uint32_t>* counts, std::vector<std::vector<GroupId>>* candidates,
    std::vector<size_t>* columns_visited) const {
  // The plan, fan-out buffer and accumulator carry no index-specific
  // state between uses, so one instance per thread only amortizes
  // allocations across probes (queries run on pool and executor threads,
  // so this scratch must not be a member of the const Tgm).
  static thread_local bitmap::BatchGroupCountAccumulator acc;
  static thread_local std::vector<TokenSubscriber> plan;
  static thread_local std::vector<bitmap::QueryWeight> fan;

  const uint32_t nq = static_cast<uint32_t>(num_queries);
  columns_visited->assign(num_queries, 0);

  // Invert: canonicalize each query into (token, multiplicity)
  // subscriptions. Short-circuit: a query whose attainable count (summed
  // multiplicity of its tokens with non-empty columns) cannot reach its
  // threshold subscribes to nothing, leaving an all-zero row — no column
  // scan could produce a candidate for it.
  plan.clear();
  for (uint32_t q = 0; q < nq; ++q) {
    if (min_counts != nullptr && min_counts[q] > 0) {
      uint32_t attainable = 0;
      ForEachTokenMultiplicity(queries[q], [&](TokenId t, uint32_t m) {
        if (t < columns_.size() && !columns_[t].Empty()) attainable += m;
      });
      if (attainable < min_counts[q]) continue;
    }
    ForEachTokenMultiplicity(queries[q], [&](TokenId t, uint32_t m) {
      if (t >= columns_.size()) return;  // token outside T: M[*, t] = 0
      if (columns_[t].Empty()) return;
      plan.push_back({t, q, m});
      ++(*columns_visited)[q];
    });
  }
  // Group subscribers by column; query order within a column keeps each
  // row's kernel sequence identical to a one-query walk (the sums are
  // exact integers, so any order would do — identical order just makes
  // the batch-size-independence argument trivial).
  std::sort(plan.begin(), plan.end(),
            [](const TokenSubscriber& a, const TokenSubscriber& b) {
              return a.token != b.token ? a.token < b.token
                                        : a.query < b.query;
            });

  acc.Reset(nq, num_groups(), counts);
  size_t distinct_columns = 0;
  size_t i = 0;
  while (i < plan.size()) {
    const TokenId t = plan[i].token;
    fan.clear();
    do {
      fan.push_back({plan[i].query, plan[i].weight});
      ++i;
    } while (i < plan.size() && plan[i].token == t);
    ++distinct_columns;
    columns_[t].AccumulateIntoBatch(acc, fan.data(), fan.size());
  }
  acc.Finish();

  if (candidates != nullptr) {
    candidates->assign(num_queries, {});
    const uint32_t* rows = counts->data();
    for (uint32_t q = 0; q < nq; ++q) {
      const uint32_t min_count = min_counts != nullptr ? min_counts[q] : 0;
      const uint32_t* row = rows + static_cast<size_t>(q) * num_groups();
      // Hopeless queries harvest nothing. (With min_count > 0, zero columns
      // visited can only mean the attainable check failed.)
      if (min_count > 0 && (*columns_visited)[q] == 0) continue;
      // Harvest: groups below min_count can no longer reach the bound (all
      // columns are folded in), so they are pruned without ever computing
      // an upper bound or entering the search frontier.
      auto& out = (*candidates)[q];
      out.reserve(num_groups());
      for (GroupId g = 0; g < num_groups(); ++g) {
        if (row[g] >= min_count) out.push_back(g);
      }
    }
  }
  return distinct_columns;
}

void Tgm::BackfillZeroCountGroups(const std::vector<uint32_t>& counts,
                                  uint32_t min_count, TopKHits* best) const {
  BackfillZeroCountGroups(counts.data(), min_count, best);
}

void Tgm::BackfillZeroCountGroups(const uint32_t* counts, uint32_t min_count,
                                  TopKHits* best) const {
  if (min_count == 0) return;  // nothing was pruned
  if (best->full() && best->WorstSimilarity() > 0.0) return;
  for (GroupId g = 0; g < num_groups(); ++g) {
    if (counts[g] != 0 || members_[g].empty()) continue;
    for (SetId s : members_[g]) best->Offer(s, 0.0);
  }
}

size_t Tgm::MatchedCountsReference(SetView query,
                                   std::vector<uint32_t>* counts) const {
  counts->assign(num_groups(), 0);
  size_t columns_visited = 0;
  ForEachTokenMultiplicity(query, [&](TokenId t, uint32_t m) {
    if (t >= columns_.size()) return;
    const bitmap::BitmapColumn& col = columns_[t];
    if (col.Empty()) return;
    ++columns_visited;
    col.ForEach([&](uint32_t g) { (*counts)[g] += m; });
  });
  return columns_visited;
}

size_t Tgm::UpperBounds(SetView query, SimilarityMeasure measure,
                        std::vector<double>* ubs) const {
  std::vector<uint32_t> counts;
  size_t visited = MatchedCounts(query, &counts);
  ubs->resize(counts.size());
  for (size_t g = 0; g < counts.size(); ++g) {
    (*ubs)[g] = GroupUpperBound(measure, counts[g], query.size());
  }
  return visited;
}

GroupId Tgm::RouteBestGroup(SetView set, SimilarityMeasure measure) const {
  // Stage 1 (Section 6): find the best group by UB over the known tokens;
  // ties (and the all-new-tokens case) go to the smallest group.
  std::vector<uint32_t> counts;
  MatchedCounts(set, &counts);
  GroupId best = 0;
  double best_ub = -1.0;
  for (GroupId g = 0; g < counts.size(); ++g) {
    double ub = GroupUpperBound(measure, counts[g], set.size());
    if (ub > best_ub ||
        (ub == best_ub && members_[g].size() < members_[best].size())) {
      best_ub = ub;
      best = g;
    }
  }
  return best;
}

void Tgm::InsertMember(GroupId g, SetId id, uint32_t size) {
  if (members_[g].empty()) ++nonempty_groups_;
  auto& sizes = member_sizes_[g];
  auto& ids = members_[g];
  // Splice at the exact (size, id) position: within an equal-size run ids
  // are ascending, so bound the run first, then the id slot inside it.
  size_t lo = static_cast<size_t>(
      std::lower_bound(sizes.begin(), sizes.end(), size) - sizes.begin());
  size_t hi = static_cast<size_t>(
      std::upper_bound(sizes.begin() + lo, sizes.end(), size) -
      sizes.begin());
  size_t pos = static_cast<size_t>(
      std::lower_bound(ids.begin() + lo, ids.begin() + hi, id) - ids.begin());
  sizes.insert(sizes.begin() + pos, size);
  ids.insert(ids.begin() + pos, id);
}

void Tgm::AddColumnBits(GroupId g, SetView set) {
  TokenId prev = static_cast<TokenId>(-1);
  for (TokenId t : set) {
    if (t == prev) continue;
    prev = t;
    if (t >= columns_.size()) {
      columns_.resize(t + 1, bitmap::BitmapColumn(bitmap_backend_));
    }
    columns_[t].Add(g);
  }
}

GroupId Tgm::AddSet(SetId id, SetView set, SimilarityMeasure measure) {
  LES3_CHECK_EQ(id, group_of_.size());  // new ids are appended in order
  group_of_.push_back(kInvalidGroup);
  return ReinsertSet(id, set, measure);
}

GroupId Tgm::ReinsertSet(SetId id, SetView set, SimilarityMeasure measure) {
  LES3_CHECK_LT(id, group_of_.size());
  LES3_CHECK_EQ(group_of_[id], kInvalidGroup);  // must be removed first
  GroupId best = RouteBestGroup(set, measure);
  InsertMember(best, id, static_cast<uint32_t>(set.size()));
  group_of_[id] = best;
  AddColumnBits(best, set);
  return best;
}

bool Tgm::RemoveSet(SetId id, uint32_t size) {
  if (id >= group_of_.size() || group_of_[id] == kInvalidGroup) return false;
  const GroupId g = group_of_[id];
  auto& sizes = member_sizes_[g];
  auto& ids = members_[g];
  size_t lo = static_cast<size_t>(
      std::lower_bound(sizes.begin(), sizes.end(), size) - sizes.begin());
  size_t hi = static_cast<size_t>(
      std::upper_bound(sizes.begin() + lo, sizes.end(), size) -
      sizes.begin());
  auto idit = std::lower_bound(ids.begin() + lo, ids.begin() + hi, id);
  if (idit == ids.begin() + hi || *idit != id) {
    return false;  // caller passed a stale size; refuse rather than corrupt
  }
  size_t pos = static_cast<size_t>(idit - ids.begin());
  ids.erase(idit);
  sizes.erase(sizes.begin() + pos);
  group_of_[id] = kInvalidGroup;
  if (ids.empty()) --nonempty_groups_;
  ++group_dirt_[g];
  return true;
}

GroupId Tgm::SplitGroup(GroupId g, const SetDatabase& db) {
  if (members_[g].size() < 2) return kInvalidGroup;
  const size_t mid = members_[g].size() / 2;
  const GroupId g2 = num_groups();
  // emplace_back may reallocate members_/member_sizes_; index afterwards.
  members_.emplace_back(members_[g].begin() + mid, members_[g].end());
  member_sizes_.emplace_back(member_sizes_[g].begin() + mid,
                             member_sizes_[g].end());
  group_dirt_.push_back(0);
  members_[g].resize(mid);
  member_sizes_[g].resize(mid);
  ++nonempty_groups_;  // both halves are non-empty (1 <= mid < old size)
  for (size_t i = 0; i < members_[g2].size(); ++i) {
    const SetId id = members_[g2][i];
    group_of_[id] = g2;
    AddColumnBits(g2, db.set(id));
  }
  // The source group's bits for tokens exclusive to the moved members are
  // now stale; charge them so maintenance recomputes g eventually.
  group_dirt_[g] += static_cast<uint32_t>(members_[g2].size());
  return g2;
}

size_t Tgm::RecomputeGroupColumns(GroupId g, const SetDatabase& db) {
  // Exact token set of the group's live members. Every member token was
  // added to a column at insert time, so t < columns_.size() throughout.
  std::vector<uint8_t> needed(columns_.size(), 0);
  for (SetId id : members_[g]) {
    for (TokenId t : db.set(id)) needed[t] = 1;
  }
  size_t dropped = 0;
  for (TokenId t = 0; t < columns_.size(); ++t) {
    if (!needed[t]) dropped += columns_[t].Remove(g);
  }
  group_dirt_[g] = 0;
  return dropped;
}

void Tgm::RunOptimize() {
  for (auto& col : columns_) col.RunOptimize();
}

uint64_t Tgm::BitmapBytes() const {
  uint64_t total = 0;
  for (const auto& col : columns_) total += col.MemoryBytes();
  return total;
}

uint64_t Tgm::MemoryBytes() const {
  uint64_t total = BitmapBytes();
  total += group_of_.size() * sizeof(GroupId);
  for (const auto& m : members_) {
    total += m.size() * (sizeof(SetId) + sizeof(uint32_t));  // ids + sizes
  }
  return total;
}

bool Tgm::Test(GroupId g, TokenId t) const {
  if (t >= columns_.size()) return false;
  return columns_[t].Contains(g);
}

void Tgm::SerializeColumns(persist::ByteWriter* writer) const {
  writer->WriteU8(static_cast<uint8_t>(bitmap_backend_));
  writer->WriteU32(static_cast<uint32_t>(columns_.size()));
  for (const auto& col : columns_) col.Serialize(writer);
}

void Tgm::SerializeCompactedColumns(const SetDatabase& db,
                                    persist::ByteWriter* writer) const {
  // Same bulk build as the constructor, driven off the live membership:
  // deleted ids are absent from members_, so their tokens contribute no
  // bits and every stale bit is dropped from the serialized form.
  std::vector<std::vector<GroupId>> token_groups(db.num_tokens());
  for (GroupId g = 0; g < members_.size(); ++g) {
    for (SetId id : members_[g]) {
      TokenId prev = static_cast<TokenId>(-1);
      for (TokenId t : db.set(id)) {
        if (t == prev) continue;
        prev = t;
        token_groups[t].push_back(g);
      }
    }
  }
  writer->WriteU8(static_cast<uint8_t>(bitmap_backend_));
  writer->WriteU32(static_cast<uint32_t>(token_groups.size()));
  for (auto& groups : token_groups) {
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
    bitmap::BitmapColumn col = bitmap::BitmapColumn::FromSorted(
        bitmap_backend_, std::vector<uint32_t>(groups.begin(), groups.end()));
    col.RunOptimize();  // the build pipeline run-optimizes; keep parity
    col.Serialize(writer);
    groups.clear();
    groups.shrink_to_fit();
  }
}

Result<Tgm> Tgm::Deserialize(std::vector<GroupId> assignment,
                             uint32_t num_groups,
                             const std::vector<uint32_t>& set_sizes,
                             persist::ByteReader* reader) {
  LES3_CHECK_EQ(set_sizes.size(), assignment.size());
  if (num_groups == 0) {
    return Status::InvalidArgument("snapshot partition has zero groups");
  }
  // Partitionings are dense (every group id appears), so a legitimate
  // snapshot always has num_groups <= |assignment|; checking it first also
  // caps the membership allocation below against attacker-sized counts.
  if (num_groups > assignment.size()) {
    return Status::OutOfRange("group count " + std::to_string(num_groups) +
                              " exceeds the set count " +
                              std::to_string(assignment.size()));
  }
  Tgm tgm;
  tgm.members_.resize(num_groups);
  for (SetId i = 0; i < assignment.size(); ++i) {
    // A tombstoned id (header flag kSnapshotFlagTombstones) joins no group.
    if (assignment[i] == kInvalidGroup) continue;
    if (assignment[i] >= num_groups) {
      return Status::OutOfRange(
          "assignment entry " + std::to_string(assignment[i]) +
          " exceeds group count " + std::to_string(num_groups));
    }
    tgm.members_[assignment[i]].push_back(i);
  }
  tgm.group_of_ = std::move(assignment);
  tgm.OrderMembersBySize([&](SetId id) { return set_sizes[id]; });
  for (const auto& m : tgm.members_) tgm.nonempty_groups_ += !m.empty();
  tgm.group_dirt_.assign(num_groups, 0);

  uint8_t backend_tag = 0;
  LES3_RETURN_NOT_OK(reader->ReadU8(&backend_tag));
  if (backend_tag > static_cast<uint8_t>(bitmap::BitmapBackend::kBitVector)) {
    return Status::InvalidArgument("unknown TGM bitmap backend tag " +
                                   std::to_string(backend_tag));
  }
  tgm.bitmap_backend_ = static_cast<bitmap::BitmapBackend>(backend_tag);
  uint32_t num_columns = 0;
  LES3_RETURN_NOT_OK(reader->ReadU32(&num_columns));
  // A serialized column is at least 5 bytes (tag + count), so a count the
  // remaining bytes cannot hold is corruption — reject before reserving.
  if (num_columns > reader->remaining() / 5) {
    return Status::OutOfRange("column count " + std::to_string(num_columns) +
                              " exceeds what the chunk can hold");
  }
  tgm.columns_.reserve(num_columns);
  for (uint32_t t = 0; t < num_columns; ++t) {
    auto col = bitmap::BitmapColumn::Deserialize(reader, num_groups);
    if (!col.ok()) {
      return Status::FromCode(col.status().code(),
                              "column " + std::to_string(t) + ": " +
                                  col.status().message());
    }
    if (col.value().backend() != tgm.bitmap_backend_) {
      return Status::InvalidArgument(
          "column " + std::to_string(t) +
          " backend does not match the matrix backend");
    }
    tgm.columns_.push_back(std::move(col).ValueOrDie());
  }
  return tgm;
}

}  // namespace tgm
}  // namespace les3

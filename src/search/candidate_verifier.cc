#include "search/candidate_verifier.h"

#include <algorithm>
#include <utility>

#include "core/verify.h"
#include "util/timer.h"

namespace les3 {
namespace search {

namespace {

/// MinOverlapForPair(measure, |Q|, |S|, threshold), recomputed only when
/// the member size or the threshold moves: members arrive size-sorted, so
/// that is once per size run.
///
/// The value also serves as the count cap. A group's matched count c_g
/// bounds |Q ∩ S| for every member S (stale column bits only raise it), so
/// a member whose required overlap exceeds c_g is strictly below the
/// threshold. The requirement never falls as |S| or the threshold grows,
/// so the first member that fails the cap ends its group's run.
struct PairOverlapBound {
  SimilarityMeasure measure;
  size_t query_size;
  size_t set_size = static_cast<size_t>(-1);
  double threshold = -1.0;
  size_t min_overlap = 0;

  size_t operator()(size_t size, double t) {
    if (size != set_size || t != threshold) {
      set_size = size;
      threshold = t;
      min_overlap = MinOverlapForPair(measure, query_size, size, t);
    }
    return min_overlap;
  }
};

}  // namespace

std::vector<Hit> CandidateVerifier::KnnFromCounts(
    SetView query, size_t k, uint32_t min_count, const uint32_t* counts,
    const std::vector<GroupId>& candidates, QueryStats* stats,
    const GroupVisitFn& on_group) const {
  // Groups in descending bound order. Built as a flat vector heapified in
  // O(|candidates|) — no per-group push cost for groups that will never be
  // popped: the loop below stops at the first bound strictly below the
  // running k-th best (an equal bound may still yield an equal-similarity
  // hit with a smaller id), and everything still on the heap is pre-skipped
  // wholesale, counted in groups_pruned without touching a member.
  using GroupEntry = std::pair<double, GroupId>;
  std::vector<GroupEntry> heap;
  heap.reserve(candidates.size());
  for (GroupId g : candidates) {
    if (tgm_->group_size(g) == 0) continue;
    heap.emplace_back(GroupUpperBound(measure_, counts[g], query.size()), g);
  }
  std::make_heap(heap.begin(), heap.end());

  TopKHits best(k);
  // Size window implied by the running k-th best; recomputed only when the
  // k-th best moves. Until the heap is full no window, and no count cap,
  // applies (any similarity can still enter).
  SizeBounds window;
  double window_threshold = -1.0;
  bool have_window = false;
  PairOverlapBound min_overlap{measure_, query.size()};
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    auto [ub, g] = heap.back();
    heap.pop_back();
    if (best.full() && ub < best.WorstSimilarity()) break;
    tgm::Tgm::MemberWindow w;
    if (best.full()) {
      double threshold = best.WorstSimilarity();
      if (!have_window || threshold != window_threshold) {
        window = SizeBoundsForThreshold(measure_, query.size(), threshold);
        window_threshold = threshold;
        have_window = true;
      }
      w = tgm_->MembersInSizeWindow(g, window.lo, window.hi);
      stats->candidates_size_skipped += w.skipped;
      // Window emptied the group, or capped it empty: its smallest member
      // already needs more overlap than the group's count.
      if (w.begin == w.end || min_overlap(*w.sizes, threshold) > counts[g]) {
        stats->candidates_size_skipped += w.count();
        continue;
      }
    } else {
      w = tgm_->MembersInSizeWindow(g, 0, static_cast<size_t>(-1));
    }
    ++stats->groups_visited;
    if (on_group) on_group(g, w.count());
    const uint32_t* size = w.sizes;
    for (const SetId* member = w.begin; member != w.end; ++member, ++size) {
      SetId s = *member;
      if (!best.full()) {
        ++stats->candidates_verified;
        best.Offer(s, Similarity(measure_, query, db_->set(s)));
        continue;
      }
      // Early-terminating verification against the running k-th best; a
      // candidate tying the k-th similarity still wins on a smaller id,
      // which Offer resolves under HitOrder.
      double threshold = best.WorstSimilarity();
      size_t need = min_overlap(*size, threshold);
      if (need > counts[g]) {
        stats->candidates_size_skipped += static_cast<size_t>(w.end - member);
        break;
      }
      ++stats->candidates_verified;
      VerifyResult v =
          VerifyThreshold(measure_, query, db_->set(s), threshold, need);
      if (v.passed) best.Offer(s, v.similarity);
    }
  }

  tgm_->BackfillZeroCountGroups(counts, min_count, &best);

  std::vector<Hit> out = best.Take();
  stats->groups_pruned = tgm_->num_nonempty_groups() - stats->groups_visited;
  stats->results = out.size();
  // Deleted ids are not searchable, so efficiency is against the live
  // population, not the id space.
  stats->pruning_efficiency =
      KnnPruningEfficiency(db_->num_live(), stats->candidates_verified, k);
  return out;
}

std::vector<Hit> CandidateVerifier::RangeFromCounts(
    SetView query, double delta, const uint32_t* counts,
    const std::vector<GroupId>& candidates, QueryStats* stats,
    const GroupVisitFn& on_group) const {
  // The δ-implied length filter, shared by every visited group.
  SizeBounds window = SizeBoundsForThreshold(measure_, query.size(), delta);
  std::vector<Hit> out;
  PairOverlapBound min_overlap{measure_, query.size()};
  for (GroupId g : candidates) {
    if (tgm_->group_size(g) == 0) continue;
    // counts[g] >= min_count already implies UB(Q, G_g) >= delta
    // (GroupUpperBound is monotone in the matched count).
    tgm::Tgm::MemberWindow w =
        tgm_->MembersInSizeWindow(g, window.lo, window.hi);
    stats->candidates_size_skipped += w.skipped;
    // Every member outside the window, or the group capped empty.
    if (w.begin == w.end || min_overlap(*w.sizes, delta) > counts[g]) {
      stats->candidates_size_skipped += w.count();
      continue;
    }
    ++stats->groups_visited;
    if (on_group) on_group(g, w.count());
    const uint32_t* size = w.sizes;
    for (const SetId* member = w.begin; member != w.end; ++member, ++size) {
      size_t need = min_overlap(*size, delta);
      if (need > counts[g]) {
        stats->candidates_size_skipped += static_cast<size_t>(w.end - member);
        break;
      }
      ++stats->candidates_verified;
      VerifyResult v =
          VerifyThreshold(measure_, query, db_->set(*member), delta, need);
      if (v.passed) out.emplace_back(*member, v.similarity);
    }
  }
  SortHits(&out);
  stats->groups_pruned = tgm_->num_nonempty_groups() - stats->groups_visited;
  stats->results = out.size();
  stats->pruning_efficiency = RangePruningEfficiency(
      db_->num_live(), stats->candidates_verified, out.size());
  return out;
}

std::vector<Hit> CandidateVerifier::Knn(SetView query, size_t k,
                                        QueryStats* stats,
                                        const GroupVisitFn& on_group) const {
  std::vector<std::vector<Hit>> hits;
  std::vector<QueryStats> batch_stats;
  KnnBatch(&query, 1, k, &hits, &batch_stats, on_group);
  if (stats != nullptr) *stats = batch_stats[0];
  return std::move(hits[0]);
}

std::vector<Hit> CandidateVerifier::Range(SetView query, double delta,
                                          QueryStats* stats,
                                          const GroupVisitFn& on_group) const {
  std::vector<std::vector<Hit>> hits;
  std::vector<QueryStats> batch_stats;
  RangeBatch(&query, 1, delta, &hits, &batch_stats, on_group);
  if (stats != nullptr) *stats = batch_stats[0];
  return std::move(hits[0]);
}

void CandidateVerifier::KnnBatch(const SetView* queries, size_t num_queries,
                                 size_t k, std::vector<std::vector<Hit>>* hits,
                                 std::vector<QueryStats>* stats,
                                 const GroupVisitFn& on_group) const {
  hits->assign(num_queries, {});
  stats->assign(num_queries, QueryStats());
  if (num_queries == 0 || k == 0) return;

  WallTimer probe_timer;
  // A group with matched count 0 shares no token with the query, so every
  // member has similarity exactly 0; such groups skip the bound heap
  // entirely and only backfill the result when it underflows k. The empty
  // query is the one exception (all counts are 0, yet empty sets have
  // similarity 1), so it keeps every group as a candidate.
  std::vector<uint32_t> min_counts(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    min_counts[q] = queries[q].size() == 0 ? 0 : 1;
  }
  std::vector<uint32_t> counts;
  std::vector<std::vector<GroupId>> candidates;
  std::vector<size_t> columns_visited;
  tgm_->MatchedCandidatesBatch(queries, num_queries, min_counts.data(),
                               &counts, &candidates, &columns_visited);
  // The shared probe's cost is attributed evenly: it ran once for all Q
  // queries, and no per-query split of a fused column walk is meaningful.
  // For a batch of one, micros is the query's measured wall time.
  const double probe_share = probe_timer.Micros() / num_queries;

  const uint32_t num_groups = tgm_->num_groups();
  for (size_t q = 0; q < num_queries; ++q) {
    WallTimer timer;
    QueryStats& qstats = (*stats)[q];
    qstats.columns_scanned = columns_visited[q];
    (*hits)[q] = KnnFromCounts(
        queries[q], k, min_counts[q],
        counts.data() + q * static_cast<size_t>(num_groups), candidates[q],
        &qstats, on_group);
    qstats.micros = probe_share + timer.Micros();
  }
}

void CandidateVerifier::RangeBatch(const SetView* queries, size_t num_queries,
                                   double delta,
                                   std::vector<std::vector<Hit>>* hits,
                                   std::vector<QueryStats>* stats,
                                   const GroupVisitFn& on_group) const {
  hits->assign(num_queries, {});
  stats->assign(num_queries, QueryStats());
  if (num_queries == 0) return;

  WallTimer probe_timer;
  // Per-query thresholds: the least matched count any δ-result's group
  // must reach; the TGM prunes groups below it during candidate
  // generation. A query whose threshold is unreachable even by an
  // identical set skips the traversal entirely; its min_count rides along
  // as |Q| + 1, which the probe's attainable check rejects without
  // touching a column (attainable <= |Q|).
  std::vector<uint32_t> min_counts(num_queries);
  std::vector<uint8_t> unreachable(num_queries, 0);
  for (size_t q = 0; q < num_queries; ++q) {
    size_t min_count =
        MinOverlapForThreshold(measure_, queries[q].size(), delta);
    if (min_count > queries[q].size()) {
      unreachable[q] = 1;
      min_count = queries[q].size() + 1;
    }
    min_counts[q] = static_cast<uint32_t>(
        std::min(min_count, static_cast<size_t>(UINT32_MAX)));
  }
  std::vector<uint32_t> counts;
  std::vector<std::vector<GroupId>> candidates;
  std::vector<size_t> columns_visited;
  tgm_->MatchedCandidatesBatch(queries, num_queries, min_counts.data(),
                               &counts, &candidates, &columns_visited);
  const double probe_share = probe_timer.Micros() / num_queries;

  const uint32_t num_groups = tgm_->num_groups();
  for (size_t q = 0; q < num_queries; ++q) {
    WallTimer timer;
    QueryStats& qstats = (*stats)[q];
    if (unreachable[q]) {
      qstats.micros = probe_share + timer.Micros();
      continue;
    }
    qstats.columns_scanned = columns_visited[q];
    (*hits)[q] = RangeFromCounts(
        queries[q], delta,
        counts.data() + q * static_cast<size_t>(num_groups), candidates[q],
        &qstats, on_group);
    qstats.micros = probe_share + timer.Micros();
  }
}

}  // namespace search
}  // namespace les3

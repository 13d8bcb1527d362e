// CandidateVerifier — the one cache-resident verification pipeline behind
// every LES3-family engine (memory, disk, and each shard of the sharded
// engine).
//
// There is one pipeline, KnnBatch/RangeBatch; Knn/Range are batches of
// one. Per batch, then per query:
//   1. Candidate generation: Tgm::MatchedCandidatesBatch computes every
//      group's matched-token count for the whole batch in one fused walk
//      over the referenced columns and prunes groups below each query's
//      threshold-implied minimum (Theorem 3.1).
//   2. Group traversal: range queries visit every surviving group; kNN
//      visits them in descending bound order off a binary heap and stops at
//      the first bound strictly below the running k-th best (groups never
//      popped count toward groups_pruned — they are pre-skipped without a
//      single member touched).
//   3. Length filter: each visited group's members are ordered by set size
//      (tgm/tgm.h), so the candidate-size window implied by the threshold
//      (core/similarity.h SizeBoundsForThreshold — for kNN, the running
//      k-th best) binary-searches down to the one contiguous run that can
//      still qualify. Inside the run the group's matched count c_g caps
//      the length filter: |Q ∩ S| <= c_g for every member S, so the first
//      member whose required overlap MinOverlapForPair(|Q|, |S|, t)
//      exceeds c_g ends the run (the requirement never falls as |S| grows).
//      A group capped empty at its first member is skipped like one the
//      window emptied. Everything cut is counted in
//      QueryStats::candidates_size_skipped without a token read.
//   4. Kernel verification: survivors run through the adaptive
//      VerifyThreshold kernels (core/verify.h) over SetViews into the
//      database's CSR token arena — no per-candidate pointer chasing.
//
// Exactness: steps 2–4 only ever discard candidates whose best attainable
// similarity is STRICTLY below the governing threshold under the identical
// double arithmetic the verifier uses, so results — ties included — match
// brute force exactly (the property suite holds every backend to this).

#ifndef LES3_SEARCH_CANDIDATE_VERIFIER_H_
#define LES3_SEARCH_CANDIDATE_VERIFIER_H_

#include <functional>
#include <vector>

#include "core/database.h"
#include "core/similarity.h"
#include "core/types.h"
#include "search/query_stats.h"
#include "tgm/tgm.h"

namespace les3 {
namespace search {

/// \brief Shared candidate generation + size filter + kernel verification.
///
/// A thin view over an index's TGM, database, and measure (cheap to
/// construct per query); owns no state, so one instance is safe to use
/// from any number of threads.
class CandidateVerifier {
 public:
  /// Fires once per group whose members are about to be verified, with the
  /// number of candidates the size window let through — the disk engine
  /// charges its extent read here, and the maintenance layer
  /// (search/maintenance.h) accumulates per-group activity. Groups
  /// pre-skipped by the bound, or emptied by the size window or the count
  /// cap, never fire. `candidates` is the window's run; the count cap may
  /// end the run early, so fewer may be verified.
  using GroupVisitFn = std::function<void(GroupId, size_t candidates)>;

  CandidateVerifier(const tgm::Tgm* tgm, const SetDatabase* db,
                    SimilarityMeasure measure)
      : tgm_(tgm), db_(db), measure_(measure) {}

  /// \brief Batched exact kNN (Definition 2.1): one shared column-major
  /// TGM probe (Tgm::MatchedCandidatesBatch) for the whole batch, then
  /// each query's traversal over its own counter row. hits[q] is sorted by
  /// HitOrder and, like every stats[q] counter except micros, does not
  /// depend on the rest of the batch. stats[q].micros is the query's
  /// traversal time plus an even share of the shared probe's wall time
  /// (for a batch of one, the query's measured wall time).
  void KnnBatch(const SetView* queries, size_t num_queries, size_t k,
                std::vector<std::vector<Hit>>* hits,
                std::vector<QueryStats>* stats,
                const GroupVisitFn& on_group = {}) const;

  /// Batched exact range search (Definition 2.2); same contract as
  /// KnnBatch.
  void RangeBatch(const SetView* queries, size_t num_queries, double delta,
                  std::vector<std::vector<Hit>>* hits,
                  std::vector<QueryStats>* stats,
                  const GroupVisitFn& on_group = {}) const;

  /// One-query KnnBatch. Fills `stats` (ignored when null).
  std::vector<Hit> Knn(SetView query, size_t k, QueryStats* stats,
                       const GroupVisitFn& on_group = {}) const;

  /// One-query RangeBatch.
  std::vector<Hit> Range(SetView query, double delta, QueryStats* stats,
                         const GroupVisitFn& on_group = {}) const;

 private:
  /// Steps 2-4 of the pipeline for one kNN query, off its row of the
  /// batch's counter matrix.
  /// Fills every stats field except columns_scanned and micros (the
  /// caller's probe owns those).
  std::vector<Hit> KnnFromCounts(SetView query, size_t k, uint32_t min_count,
                                 const uint32_t* counts,
                                 const std::vector<GroupId>& candidates,
                                 QueryStats* stats,
                                 const GroupVisitFn& on_group) const;

  /// Range-query counterpart of KnnFromCounts. The min-count pruning is
  /// already folded into `candidates`; the counter row feeds the per-member
  /// count cap.
  std::vector<Hit> RangeFromCounts(SetView query, double delta,
                                   const uint32_t* counts,
                                   const std::vector<GroupId>& candidates,
                                   QueryStats* stats,
                                   const GroupVisitFn& on_group) const;

  const tgm::Tgm* tgm_;
  const SetDatabase* db_;
  SimilarityMeasure measure_;
};

}  // namespace search
}  // namespace les3

#endif  // LES3_SEARCH_CANDIDATE_VERIFIER_H_

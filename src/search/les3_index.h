// The LES3 search engine: exact kNN and range set-similarity search over a
// TGM-indexed, group-partitioned database (paper Sections 3 and 6).
//
// Query processing is group-at-a-time and runs entirely through the shared
// CandidateVerifier pipeline (search/candidate_verifier.h) — KnnBatch /
// RangeBatch, with Knn / Range as batches of one: the TGM yields
// an upper bound on the similarity between the query and every set of each
// group in one pass; groups are then visited in bound order (kNN) or
// bound-filtered (range), each visited group is narrowed to the members
// whose sizes can still attain the governing threshold, and only those run
// the adaptive verification kernels. Results are exact for every measure
// satisfying the TGM Applicability Property (Theorem 3.1).

#ifndef LES3_SEARCH_LES3_INDEX_H_
#define LES3_SEARCH_LES3_INDEX_H_

#include <memory>
#include <vector>

#include "core/database.h"
#include "core/similarity.h"
#include "core/types.h"
#include "search/candidate_verifier.h"
#include "search/query_stats.h"
#include "tgm/tgm.h"

namespace les3 {
namespace search {

/// The shared scored-hit type (see core/types.h).
using les3::Hit;

/// \brief Exact set-similarity search index (LES3).
///
/// Holds a shared reference to the database; supports closed- and
/// open-universe inserts (Section 6).
class Les3Index {
 public:
  /// Builds from a database and a partitioning (from any Partitioner; the
  /// paper's default is L2P). Takes sole ownership of `db`. TGM columns
  /// are stored in `bitmap_backend` representation.
  Les3Index(SetDatabase db, const std::vector<GroupId>& assignment,
            uint32_t num_groups,
            SimilarityMeasure measure = SimilarityMeasure::kJaccard,
            bitmap::BitmapBackend bitmap_backend =
                bitmap::BitmapBackend::kRoaring);

  /// Same, over a database shared with other searchers (the api/ adapters
  /// build every backend over one owned copy). `db` must be non-null.
  Les3Index(std::shared_ptr<SetDatabase> db,
            const std::vector<GroupId>& assignment, uint32_t num_groups,
            SimilarityMeasure measure = SimilarityMeasure::kJaccard,
            bitmap::BitmapBackend bitmap_backend =
                bitmap::BitmapBackend::kRoaring);

  /// Adopts an already-built matrix (a snapshot reload,
  /// persist/snapshot.h): no partitioning, no training, no RunOptimize —
  /// the matrix is used exactly as deserialized, so a reloaded index
  /// answers queries identically to the index that was saved.
  Les3Index(std::shared_ptr<SetDatabase> db, tgm::Tgm tgm,
            SimilarityMeasure measure);

  /// Exact kNN (Definition 2.1): the k most similar sets, sorted by
  /// descending similarity (ties by ascending id). A one-query KnnBatch.
  /// `on_group` (optional) observes visited groups — see
  /// CandidateVerifier::GroupVisitFn.
  std::vector<Hit> Knn(SetView query, size_t k, QueryStats* stats = nullptr,
                       const CandidateVerifier::GroupVisitFn& on_group = {})
      const;

  /// Exact range search (Definition 2.2): all sets with Sim >= delta,
  /// sorted by descending similarity. A one-query RangeBatch.
  std::vector<Hit> Range(SetView query, double delta,
                         QueryStats* stats = nullptr,
                         const CandidateVerifier::GroupVisitFn& on_group = {})
      const;

  /// \brief Batched exact kNN: one shared column-major TGM probe for all
  /// queries (CandidateVerifier::KnnBatch); hits[q] and every stats[q]
  /// counter but micros are independent of the rest of the batch.
  void KnnBatch(const SetView* queries, size_t num_queries, size_t k,
                std::vector<std::vector<Hit>>* hits,
                std::vector<QueryStats>* stats,
                const CandidateVerifier::GroupVisitFn& on_group = {}) const {
    verifier().KnnBatch(queries, num_queries, k, hits, stats, on_group);
  }

  /// Batched exact range search; same exactness contract as KnnBatch.
  void RangeBatch(const SetView* queries, size_t num_queries, double delta,
                  std::vector<std::vector<Hit>>* hits,
                  std::vector<QueryStats>* stats,
                  const CandidateVerifier::GroupVisitFn& on_group = {}) const {
    verifier().RangeBatch(queries, num_queries, delta, hits, stats, on_group);
  }

  /// Inserts a new set (tokens may be previously unseen); returns its id.
  SetId Insert(SetRecord set);

  /// Deletes set `id`: the member is erased from its TGM group and the
  /// database entry tombstoned (the id is never reused). Returns false
  /// when `id` is out of range or already deleted.
  bool Delete(SetId id);

  /// Replaces set `id` with new content, keeping the id: the member is
  /// re-routed through Section 6 insertion (possibly to a different
  /// group). Returns false when `id` is out of range or deleted.
  bool Update(SetId id, SetRecord set);

  const SetDatabase& db() const { return *db_; }
  const std::shared_ptr<SetDatabase>& shared_db() const { return db_; }
  const tgm::Tgm& tgm() const { return tgm_; }

  /// Mutable matrix access for the maintenance layer
  /// (search/maintenance.h) only; the caller must hold whatever lock
  /// guards this index against concurrent queries.
  tgm::Tgm* mutable_tgm() { return &tgm_; }
  SimilarityMeasure measure() const { return measure_; }
  bitmap::BitmapBackend bitmap_backend() const {
    return tgm_.bitmap_backend();
  }

  /// Index footprint (TGM bitmaps + group membership), tombstone-aware:
  /// tokens of deleted sets still resident in the arena (SetDatabase
  /// tombstoning is logical) are charged too, so Describe/fig11 memory
  /// numbers stay honest after Delete/Update. Stale column bits need no
  /// extra charge — they are physically present in the bitmaps and already
  /// counted by MemoryBytes; their debt is surfaced via TotalDirt().
  uint64_t IndexBytes() const {
    return tgm_.MemoryBytes() + db_->GarbageTokens() * sizeof(TokenId);
  }

 private:
  CandidateVerifier verifier() const {
    return CandidateVerifier(&tgm_, db_.get(), measure_);
  }

  std::shared_ptr<SetDatabase> db_;
  tgm::Tgm tgm_;
  SimilarityMeasure measure_;
};

}  // namespace search
}  // namespace les3

#endif  // LES3_SEARCH_LES3_INDEX_H_

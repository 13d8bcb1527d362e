// Disk-resident variants of LES3 and the baselines (Figure 13).
//
// All four methods run the same in-memory algorithms as their memory-mode
// counterparts while charging every data access to a DiskSimulator:
//   - DiskLes3: TGM in memory (it is tiny); each surviving group costs one
//     seek plus a sequential read of its contiguous extent. Queries run
//     the shared CandidateVerifier pipeline (search/candidate_verifier.h),
//     so the size window and the group-count cap can skip a whole group's
//     extent read when no member can attain the threshold.
//   - DiskBruteForce: one sequential scan of the whole file.
//   - DiskInvIdx: posting reads for the query prefix plus one random set
//     read per candidate (candidates sorted by id, so physically adjacent
//     candidates coalesce).
//   - DiskDualTrans: one random page per R-tree node visited plus one
//     random set read per scored candidate.
// Reported latency = CPU time + simulated I/O time.

#ifndef LES3_STORAGE_DISK_SEARCH_H_
#define LES3_STORAGE_DISK_SEARCH_H_

#include <memory>
#include <utility>
#include <vector>

#include "baselines/brute_force.h"
#include "baselines/dualtrans.h"
#include "baselines/invidx.h"
#include "core/database.h"
#include "search/les3_index.h"
#include "storage/disk.h"
#include "storage/disk_store.h"

namespace les3 {
namespace storage {

/// Query outcome in disk mode.
struct DiskQueryResult {
  std::vector<Hit> hits;
  search::QueryStats stats;  // candidates / PE / CPU micros
  double io_ms = 0.0;        // simulated I/O time
  uint64_t seeks = 0;
  uint64_t pages = 0;
  /// Total latency the Figure 13 bench reports.
  double TotalMs() const { return io_ms + stats.micros / 1000.0; }
};

/// \brief LES3 with data on disk, groups stored contiguously.
class DiskLes3 {
 public:
  DiskLes3(const SetDatabase* db, const std::vector<GroupId>& assignment,
           uint32_t num_groups, SimilarityMeasure measure,
           DiskOptions disk = {},
           bitmap::BitmapBackend bitmap_backend =
               bitmap::BitmapBackend::kRoaring);

  /// Adopts an already-built matrix (a snapshot reload): no partitioning
  /// or training work, and the GroupContiguous layout is regenerated from
  /// the matrix's own assignment — identical to the layout the original
  /// build produced from the same partitioning.
  DiskLes3(const SetDatabase* db, tgm::Tgm tgm, SimilarityMeasure measure,
           DiskOptions disk = {});

  DiskQueryResult Knn(SetView query, size_t k) const;
  DiskQueryResult Range(SetView query, double delta) const;

  uint64_t IndexBytes() const { return tgm_.MemoryBytes(); }

  /// The matrix and measure (what SearchEngine::Save persists).
  const tgm::Tgm& tgm() const { return tgm_; }
  SimilarityMeasure measure() const { return measure_; }

 private:
  const SetDatabase* db_;
  tgm::Tgm tgm_;
  SimilarityMeasure measure_;
  DiskLayout layout_;
  DiskOptions disk_;
};

/// \brief Sequential-scan baseline on disk.
class DiskBruteForce {
 public:
  DiskBruteForce(const SetDatabase* db, SimilarityMeasure measure,
                 DiskOptions disk = {});

  DiskQueryResult Knn(SetView query, size_t k) const;
  DiskQueryResult Range(SetView query, double delta) const;

 private:
  const SetDatabase* db_;
  baselines::BruteForce scan_;
  DiskLayout layout_;
  DiskOptions disk_;
};

/// \brief Inverted index with postings and data on disk.
class DiskInvIdx {
 public:
  DiskInvIdx(const SetDatabase* db, baselines::InvIdxOptions options,
             DiskOptions disk = {});

  DiskQueryResult Knn(SetView query, size_t k) const;
  DiskQueryResult Range(SetView query, double delta) const;

  uint64_t IndexBytes() const { return index_.IndexBytes(); }

 private:
  /// Charges postings + candidate reads for one filter pass.
  void ChargeFilter(const baselines::InvIdx::FilterResult& filter,
                    DiskSimulator* sim) const;

  const SetDatabase* db_;
  baselines::InvIdx index_;
  baselines::InvIdxOptions options_;
  DiskLayout data_layout_;
  std::unique_ptr<PostingLayout> posting_layout_;
  DiskOptions disk_;
};

/// \brief DualTrans with R-tree nodes and data on disk.
class DiskDualTrans {
 public:
  DiskDualTrans(const SetDatabase* db, baselines::DualTransOptions options,
                DiskOptions disk = {});

  DiskQueryResult Knn(SetView query, size_t k) const;
  DiskQueryResult Range(SetView query, double delta) const;

  uint64_t IndexBytes() const { return index_.IndexBytes(); }

 private:
  DiskQueryResult Charge(std::vector<Hit> hits,
                         const search::QueryStats& stats) const;

  const SetDatabase* db_;
  baselines::DualTrans index_;
  DiskLayout layout_;
  DiskOptions disk_;
};

}  // namespace storage
}  // namespace les3

#endif  // LES3_STORAGE_DISK_SEARCH_H_

#include "storage/disk_search.h"

#include "search/candidate_verifier.h"

#include <algorithm>
#include <queue>

#include "util/timer.h"

namespace les3 {
namespace storage {
namespace {

void FillDiskCounters(const DiskSimulator& sim, DiskQueryResult* result) {
  result->io_ms = sim.ElapsedMs();
  result->seeks = sim.seeks();
  result->pages = sim.pages_read();
}

}  // namespace

// ---------------------------------------------------------------------------
// DiskLes3.

DiskLes3::DiskLes3(const SetDatabase* db,
                   const std::vector<GroupId>& assignment,
                   uint32_t num_groups, SimilarityMeasure measure,
                   DiskOptions disk, bitmap::BitmapBackend bitmap_backend)
    : db_(db),
      tgm_(*db, assignment, num_groups, bitmap_backend),
      measure_(measure),
      layout_(DiskLayout::GroupContiguous(*db, assignment, num_groups)),
      disk_(disk) {
  tgm_.RunOptimize();
}

DiskLes3::DiskLes3(const SetDatabase* db, tgm::Tgm tgm,
                   SimilarityMeasure measure, DiskOptions disk)
    : db_(db),
      tgm_(std::move(tgm)),
      measure_(measure),
      layout_(DiskLayout::GroupContiguous(*db, tgm_.group_assignment(),
                                          tgm_.num_groups())),
      disk_(disk) {}

DiskQueryResult DiskLes3::Knn(SetView query, size_t k) const {
  DiskQueryResult result;
  DiskSimulator sim(disk_);
  // The shared pipeline (bound-ordered traversal, size window, kernels);
  // each group whose members get verified costs one seek plus a sequential
  // read of its contiguous extent. Groups the size window or the count cap
  // empties are not fetched at all — the filter saves I/O here, not just
  // CPU.
  search::CandidateVerifier verifier(&tgm_, db_, measure_);
  result.hits = verifier.Knn(query, k, &result.stats, [&](GroupId g, size_t) {
    const Extent& extent = layout_.group_extent(g);
    sim.Read(extent.offset, extent.bytes);
  });
  FillDiskCounters(sim, &result);
  return result;
}

DiskQueryResult DiskLes3::Range(SetView query, double delta) const {
  DiskQueryResult result;
  DiskSimulator sim(disk_);
  search::CandidateVerifier verifier(&tgm_, db_, measure_);
  result.hits = verifier.Range(query, delta, &result.stats, [&](GroupId g, size_t) {
    const Extent& extent = layout_.group_extent(g);
    sim.Read(extent.offset, extent.bytes);
  });
  FillDiskCounters(sim, &result);
  return result;
}

// ---------------------------------------------------------------------------
// DiskBruteForce.

DiskBruteForce::DiskBruteForce(const SetDatabase* db,
                               SimilarityMeasure measure, DiskOptions disk)
    : db_(db),
      scan_(db, measure),
      layout_(DiskLayout::IdOrdered(*db)),
      disk_(disk) {}

DiskQueryResult DiskBruteForce::Knn(SetView query, size_t k) const {
  DiskQueryResult result;
  DiskSimulator sim(disk_);
  sim.Read(0, layout_.total_bytes());  // one full sequential scan
  result.hits = scan_.Knn(query, k, &result.stats);
  FillDiskCounters(sim, &result);
  return result;
}

DiskQueryResult DiskBruteForce::Range(SetView query,
                                      double delta) const {
  DiskQueryResult result;
  DiskSimulator sim(disk_);
  sim.Read(0, layout_.total_bytes());
  result.hits = scan_.Range(query, delta, &result.stats);
  FillDiskCounters(sim, &result);
  return result;
}

// ---------------------------------------------------------------------------
// DiskInvIdx.

DiskInvIdx::DiskInvIdx(const SetDatabase* db,
                       baselines::InvIdxOptions options, DiskOptions disk)
    : db_(db),
      index_(db, options),
      options_(options),
      data_layout_(DiskLayout::IdOrdered(*db)),
      disk_(disk) {
  std::vector<uint64_t> lengths(db->num_tokens(), 0);
  for (TokenId t = 0; t < db->num_tokens(); ++t) {
    lengths[t] = index_.Postings(t).size();
  }
  posting_layout_ = std::make_unique<PostingLayout>(lengths);
}

void DiskInvIdx::ChargeFilter(const baselines::InvIdx::FilterResult& filter,
                              DiskSimulator* sim) const {
  for (TokenId t : filter.prefix_tokens) {
    // Query tokens outside the indexed universe have no posting list on
    // disk, hence nothing to read.
    if (t >= db_->num_tokens()) continue;
    const Extent& e = posting_layout_->posting_extent(t);
    sim->Read(e.offset, e.bytes);
  }
  // Candidate fetches in id order coalesce physically adjacent sets.
  std::vector<SetId> sorted = filter.candidates;
  std::sort(sorted.begin(), sorted.end());
  for (SetId c : sorted) {
    const Extent& e = data_layout_.set_extent(c);
    sim->Read(e.offset, e.bytes);
  }
}

DiskQueryResult DiskInvIdx::Range(SetView query,
                                  double delta) const {
  WallTimer timer;
  DiskQueryResult result;
  DiskSimulator sim(disk_);
  auto filter = index_.RangeFilter(query, delta);
  ChargeFilter(filter, &sim);
  for (SetId c : filter.candidates) {
    double simval = Similarity(options_.measure, query, db_->set(c));
    if (simval >= delta) result.hits.emplace_back(c, simval);
  }
  SortHits(&result.hits);
  result.stats.candidates_verified = filter.candidates.size();
  result.stats.results = result.hits.size();
  result.stats.pruning_efficiency = search::RangePruningEfficiency(
      db_->size(), filter.candidates.size(), result.hits.size());
  result.stats.micros = timer.Micros();
  FillDiskCounters(sim, &result);
  return result;
}

DiskQueryResult DiskInvIdx::Knn(SetView query, size_t k) const {
  WallTimer timer;
  DiskQueryResult result;
  DiskSimulator sim(disk_);
  std::vector<uint8_t> verified(db_->size(), 0);
  TopKHits best(k);
  double delta = 1.0;
  for (;;) {
    auto filter = index_.RangeFilter(query, delta);
    // Charge only the not-yet-fetched candidates; postings for the prefix
    // are re-read as the prefix grows (the repeated-filtering cost the
    // paper attributes to InvIdx).
    baselines::InvIdx::FilterResult fresh;
    fresh.prefix_tokens = filter.prefix_tokens;
    for (SetId c : filter.candidates) {
      if (!verified[c]) fresh.candidates.push_back(c);
    }
    ChargeFilter(fresh, &sim);
    for (SetId c : fresh.candidates) {
      verified[c] = 1;
      ++result.stats.candidates_verified;
      best.Offer(c, Similarity(options_.measure, query, db_->set(c)));
    }
    // Unseen sets are strictly below delta (they missed the candidate
    // set), so ties with the k-th best are impossible once it reaches it.
    if (best.size() >= std::min<size_t>(k, db_->size()) && best.size() > 0 &&
        best.WorstSimilarity() >= delta) {
      break;
    }
    if (delta <= 0.0) break;
    delta = std::max(0.0, delta - options_.knn_delta_step);
  }
  result.hits = best.Take();
  result.stats.results = result.hits.size();
  result.stats.pruning_efficiency = search::KnnPruningEfficiency(
      db_->size(), result.stats.candidates_verified, k);
  result.stats.micros = timer.Micros();
  FillDiskCounters(sim, &result);
  return result;
}

// ---------------------------------------------------------------------------
// DiskDualTrans.

DiskDualTrans::DiskDualTrans(const SetDatabase* db,
                             baselines::DualTransOptions options,
                             DiskOptions disk)
    : db_(db),
      index_(db, options),
      layout_(DiskLayout::IdOrdered(*db)),
      disk_(disk) {}

DiskQueryResult DiskDualTrans::Charge(
    std::vector<Hit> hits,
    const search::QueryStats& stats) const {
  DiskQueryResult result;
  result.hits = std::move(hits);
  result.stats = stats;
  DiskSimulator sim(disk_);
  // One random page per R-tree node touched (stats.groups_visited), plus a
  // random read of every candidate set verified.
  for (uint64_t i = 0; i < stats.groups_visited; ++i) {
    sim.RandomRead(disk_.page_bytes);
  }
  for (uint64_t i = 0; i < stats.candidates_verified; ++i) {
    // Average serialized set size approximates the per-candidate fetch.
    uint64_t avg = layout_.total_bytes() / std::max<uint64_t>(db_->size(), 1);
    sim.RandomRead(std::max<uint64_t>(avg, 1));
  }
  FillDiskCounters(sim, &result);
  return result;
}

DiskQueryResult DiskDualTrans::Knn(SetView query, size_t k) const {
  search::QueryStats stats;
  auto hits = index_.Knn(query, k, &stats);
  return Charge(std::move(hits), stats);
}

DiskQueryResult DiskDualTrans::Range(SetView query,
                                     double delta) const {
  search::QueryStats stats;
  auto hits = index_.Range(query, delta, &stats);
  return Charge(std::move(hits), stats);
}

}  // namespace storage
}  // namespace les3

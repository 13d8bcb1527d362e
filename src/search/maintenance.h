// Self-healing group maintenance (docs/mutability.md).
//
// Sustained Insert/Delete/Update traffic drifts the index away from the
// partition L2P trained at build time, in two distinct ways:
//
//   - Stale column bits: RemoveSet leaves M[g, t] = 1 for tokens no live
//     member of g carries. Upper bounds stay admissible (exactness holds),
//     but pruning weakens — the TGM admits groups that verify nothing.
//     Tracked per group as a dirt counter (tgm::Tgm::group_dirt).
//   - Overgrown groups: Section 6 routing appends every new set to its
//     best existing group, so hot groups swell and their members all pay
//     each other's verification cost whenever the group is admitted.
//
// MaintainIndexOnce pays both debts incrementally: it recomputes the
// columns of the dirtiest groups (prioritized by observed query activity,
// so the groups queries actually visit heal first) and splits groups that
// outgrew the mean at their size median. Work per call is bounded by
// MaintenanceOptions::max_ops_per_cycle, so a cycle is a short
// writer-lock critical section, never a rebuild.
//
// MaintenanceThread runs cycles on an interval; ShardedEngine (and so
// les3, its one-shard case) owns one and rotates it across shards, taking
// each shard's writer lock only for the duration of that shard's cycle
// (queries on other shards proceed).

#ifndef LES3_SEARCH_MAINTENANCE_H_
#define LES3_SEARCH_MAINTENANCE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/types.h"
#include "search/les3_index.h"

namespace les3 {
namespace search {

/// Per-group query-activity counters, fed from the CandidateVerifier
/// on_group hook. The hook reports a visited group's size-window run
/// length before the per-member count cap can end the run early, so the
/// candidate part of a score is an upper bound on the members actually
/// verified. Observe() runs under the engine's reader lock (relaxed
/// atomics, no contention with other readers); Grow() and Drain() run
/// under the writer lock, so they never race an Observe.
class GroupActivity {
 public:
  explicit GroupActivity(size_t num_groups = 0) { Grow(num_groups); }

  /// Ensures capacity for `num_groups` groups, preserving counts.
  void Grow(size_t num_groups);

  /// Records one group visit whose size window held `candidates` members
  /// (an upper bound on those verified: the count cap may stop the run
  /// sooner). Out-of-range groups (raced with a split before Grow) are
  /// dropped — maintenance heuristics tolerate undercounting.
  void Observe(GroupId g, size_t candidates) {
    if (g < size_) {
      counts_[g].fetch_add(1 + candidates, std::memory_order_relaxed);
    }
  }

  /// Activity score of group `g`: visits plus size-window candidates,
  /// which bound the members verified from above.
  uint64_t Score(GroupId g) const {
    return g < size_ ? counts_[g].load(std::memory_order_relaxed) : 0;
  }

  /// Halves every counter — an exponential decay so old traffic stops
  /// dominating the priorities. Called once per maintenance cycle.
  void Decay();

  size_t size() const { return size_; }

 private:
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  size_t size_ = 0;
};

struct MaintenanceOptions {
  /// Split a group when its live size exceeds this multiple of the mean
  /// live group size (and min_split_size).
  double overgrown_factor = 2.0;
  /// Never split groups smaller than this (tiny groups prune fine).
  size_t min_split_size = 16;
  /// Recompute a group's columns when dirt > dirt_ratio * (live + 1).
  double dirt_ratio = 0.25;
  /// Upper bound on splits + recomputes per cycle (bounds the writer-lock
  /// critical section).
  size_t max_ops_per_cycle = 4;
  /// Background thread wake interval.
  std::chrono::milliseconds interval{200};
};

struct MaintenanceReport {
  size_t splits = 0;
  size_t recomputes = 0;
  size_t bits_dropped = 0;

  MaintenanceReport& operator+=(const MaintenanceReport& o) {
    splits += o.splits;
    recomputes += o.recomputes;
    bits_dropped += o.bits_dropped;
    return *this;
  }
};

/// \brief One bounded maintenance cycle over one index. The caller must
/// hold the index's writer lock (no queries in flight). `activity` (may
/// be null) prioritizes column recomputes toward the groups queries
/// visit; it is grown to the post-split group count before returning.
MaintenanceReport MaintainIndexOnce(Les3Index* index,
                                    const MaintenanceOptions& options,
                                    GroupActivity* activity = nullptr);

/// \brief Background driver: runs `cycle` every `interval` until
/// destroyed (or Stop()). The cycle callback owns all locking.
class MaintenanceThread {
 public:
  using Cycle = std::function<MaintenanceReport()>;

  MaintenanceThread(Cycle cycle, std::chrono::milliseconds interval);
  ~MaintenanceThread();

  /// Stops and joins the thread; idempotent.
  void Stop();

  /// Totals across all cycles so far (approximate reads, relaxed).
  uint64_t total_splits() const {
    return splits_.load(std::memory_order_relaxed);
  }
  uint64_t total_recomputes() const {
    return recomputes_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();

  Cycle cycle_;
  std::chrono::milliseconds interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> recomputes_{0};
  std::thread thread_;
};

}  // namespace search
}  // namespace les3

#endif  // LES3_SEARCH_MAINTENANCE_H_

// Per-query statistics: pruning efficiency (Definition 2.3) and the cost
// counters the benches report.

#ifndef LES3_SEARCH_QUERY_STATS_H_
#define LES3_SEARCH_QUERY_STATS_H_

#include <cstdint>

namespace les3 {
namespace search {

struct QueryStats {
  uint64_t candidates_verified = 0;  // |S_Q|: sets whose similarity was
                                     // computed
  uint64_t candidates_size_skipped = 0;  // members of surviving groups
                                         // skipped by the size window or
                                         // the group-count cap, without
                                         // touching a token
  uint64_t groups_visited = 0;       // groups whose members were verified
  uint64_t groups_pruned = 0;
  uint64_t columns_scanned = 0;      // TGM token columns visited
  uint64_t results = 0;              // |R|: result size actually returned
  double pruning_efficiency = 0.0;   // Definition 2.3
  double micros = 0.0;               // wall time of the query
};

/// PE for a kNN query: (|D| - (|S_Q| - k)) / |D|.
inline double KnnPruningEfficiency(uint64_t db_size, uint64_t candidates,
                                   uint64_t k) {
  if (db_size == 0) return 1.0;
  uint64_t extra = candidates > k ? candidates - k : 0;
  return static_cast<double>(db_size - extra) / static_cast<double>(db_size);
}

/// PE for a range query: (|D| - (|S_Q| - |R|)) / |D|.
inline double RangePruningEfficiency(uint64_t db_size, uint64_t candidates,
                                     uint64_t results) {
  if (db_size == 0) return 1.0;
  uint64_t extra = candidates > results ? candidates - results : 0;
  return static_cast<double>(db_size - extra) / static_cast<double>(db_size);
}

}  // namespace search
}  // namespace les3

#endif  // LES3_SEARCH_QUERY_STATS_H_

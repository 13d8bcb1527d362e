// The correctness gate: replies are compared, ids and similarity bit
// patterns, with an exact oracle that shares no code with the LES3 index.
//
// The brute_force backend (baselines::BruteForce) is the reference, but at
// ~9 ms per query on the KOSARAK analog it is far slower than the served
// queries, so it cannot check every reply of a run. The oracle therefore
// finds candidates in token posting lists and evaluates les3::Similarity —
// the function the brute_force backend evaluates — on each of them. For
// Jaccard >= t > 0 a set needs t|Q| <= |S| <= |Q|/t and an overlap of at
// least c = ceil(t|Q|), so it must contain one of any |Q| - c + 1 query
// tokens (prefix filter): the oracle scans the postings of that many of
// the query's rarest tokens, restricted to the size window. When that is
// every query token, the scan counts exact overlaps and skips sets below
// the overlap bound. All bounds are loosened by one against rounding.
// A kNN reply supplies its own k-th similarity as the threshold: if the reply is
// right, the oracle's top k equals it; if it is wrong in any way, the two
// differ. Replies whose k-th similarity is 0 are checked by a full brute
// force scan.
//
// ValidateOracle holds the oracle itself to the brute_force backend on a
// sample of queries, on every run.

#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <vector>

#include "baselines/brute_force.h"
#include "core/database.h"
#include "core/set_record.h"
#include "core/types.h"
#include "util/thread_pool.h"

namespace perfbench {

class Oracle {
 public:
  /// Indexes the live sets of `db`. `db` must outlive the oracle.
  explicit Oracle(const les3::SetDatabase& db);

  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// The exact top k, given the reply under test (see file comment).
  std::vector<les3::Hit> Knn(les3::SetView query, size_t k,
                             const std::vector<les3::Hit>& reply) const;

  /// The exact answer of Range(query, delta).
  std::vector<les3::Hit> Range(les3::SetView query, double delta) const;

  bool CheckKnn(les3::SetView query, size_t k,
                const std::vector<les3::Hit>& reply) const;
  bool CheckRange(les3::SetView query, double delta,
                  const std::vector<les3::Hit>& reply) const;

 private:
  struct Posting {
    uint32_t size;
    les3::SetId id;
    bool operator<(const Posting& o) const {
      return size != o.size ? size < o.size : id < o.id;
    }
  };

  /// Every live set with Sim >= threshold > 0, sorted by HitOrder.
  std::vector<les3::Hit> AtLeast(les3::SetView query, double threshold) const;

  const les3::SetDatabase* db_;
  les3::baselines::BruteForce full_;
  std::vector<std::vector<Posting>> postings_;  // by token, (size, id) order
  bool multiset_ = false;  // some set repeats a token: scan everything
};

/// Same ids, same order, same similarity bit patterns.
bool SameHits(const std::vector<les3::Hit>& a, const std::vector<les3::Hit>& b);

/// Holds `oracle` to the brute_force backend over `db` on the first
/// `count` sets of `queries` (kNN k and Range delta); returns the number
/// of disagreements.
size_t ValidateOracle(const Oracle& oracle, const les3::SetDatabase& db,
                      const les3::SetDatabase& queries, size_t count,
                      size_t k, double delta, les3::ThreadPool* pool);

/// Feeds the gate a correct reply and corrupted ones (a flipped similarity
/// bit, a wrong id, a dropped hit, and for kNN an inflated k-th
/// similarity), for the first of `queries` with ten kNN hits and two
/// Range 0.2 hits. True when the correct reply passes and every corrupted
/// one fails.
bool GateSelfTest(const Oracle& oracle, const les3::SetDatabase& db,
                  const les3::SetDatabase& queries);

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_

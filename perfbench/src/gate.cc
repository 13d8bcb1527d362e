#include "gate.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "core/similarity.h"

namespace perfbench {

using les3::Hit;
using les3::SetView;

Oracle::Oracle(const les3::SetDatabase& db) : db_(&db), full_(&db) {
  postings_.resize(db.num_tokens());
  for (les3::SetId id = 0; id < db.size(); ++id) {
    if (db.is_deleted(id)) continue;
    SetView set = db.set(id);
    for (size_t i = 0; i < set.size(); ++i) {
      if (i > 0 && set[i] == set[i - 1]) {
        multiset_ = true;
        continue;
      }
      if (postings_.size() <= set[i]) postings_.resize(set[i] + 1);
      postings_[set[i]].push_back({static_cast<uint32_t>(set.size()), id});
    }
  }
  for (auto& list : postings_) std::sort(list.begin(), list.end());
}

std::vector<Hit> Oracle::AtLeast(SetView query, double threshold) const {
  if (multiset_) return full_.Range(query, threshold);
  const double q = static_cast<double>(query.size());
  const auto lo = static_cast<uint32_t>(std::max(0.0, std::floor(q * threshold) - 1));
  const auto hi = static_cast<uint32_t>(std::min(1e9, std::ceil(q / threshold) + 1));
  const auto need = static_cast<size_t>(std::max(1.0, std::ceil(q * threshold) - 1));

  // The query's distinct tokens, rarest first; scan the first |Q| - c + 1.
  std::vector<les3::TokenId> tokens;
  for (size_t i = 0; i < query.size(); ++i) {
    if (i > 0 && query[i] == query[i - 1]) continue;
    if (query[i] < postings_.size()) tokens.push_back(query[i]);
  }
  std::sort(tokens.begin(), tokens.end(), [&](les3::TokenId a, les3::TokenId b) {
    return postings_[a].size() < postings_[b].size();
  });
  const size_t distinct = tokens.size();
  const size_t prefix = query.size() - std::min(need, query.size()) + 1;
  if (tokens.size() > prefix) tokens.resize(prefix);
  const bool exact_counts = tokens.size() == distinct;

  thread_local std::vector<uint16_t> count;
  thread_local std::vector<les3::SetId> touched;
  if (count.size() < db_->size()) count.assign(db_->size(), 0);
  touched.clear();
  for (les3::TokenId t : tokens) {
    const auto& list = postings_[t];
    auto it = std::lower_bound(list.begin(), list.end(), Posting{lo, 0});
    for (; it != list.end() && it->size <= hi; ++it) {
      if (count[it->id]++ == 0) touched.push_back(it->id);
    }
  }
  std::vector<Hit> out;
  for (les3::SetId id : touched) {
    const double s = static_cast<double>(db_->set_size(id));
    const double overlap_bound =
        std::floor(threshold * (q + s) / (1 + threshold)) - 1;
    if (!exact_counts || count[id] >= overlap_bound) {
      double sim = les3::Similarity(les3::SimilarityMeasure::kJaccard, query,
                                    db_->set(id));
      if (sim >= threshold) out.emplace_back(id, sim);
    }
    count[id] = 0;
  }
  les3::SortHits(&out);
  return out;
}

std::vector<Hit> Oracle::Knn(SetView query, size_t k,
                             const std::vector<Hit>& reply) const {
  if (query.empty() || k == 0 || reply.size() < k ||
      !(reply.back().second > 0) || !std::isfinite(reply.back().second)) {
    return full_.Knn(query, k);
  }
  std::vector<Hit> out = AtLeast(query, reply.back().second);
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<Hit> Oracle::Range(SetView query, double delta) const {
  if (query.empty() || !(delta > 0)) return full_.Range(query, delta);
  return AtLeast(query, delta);
}

bool Oracle::CheckKnn(SetView query, size_t k,
                      const std::vector<Hit>& reply) const {
  return SameHits(Knn(query, k, reply), reply);
}

bool Oracle::CheckRange(SetView query, double delta,
                        const std::vector<Hit>& reply) const {
  return SameHits(Range(query, delta), reply);
}

bool SameHits(const std::vector<Hit>& a, const std::vector<Hit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

size_t ValidateOracle(const Oracle& oracle, const les3::SetDatabase& db,
                      const les3::SetDatabase& queries, size_t count,
                      size_t k, double delta, les3::ThreadPool* pool) {
  count = std::min(count, queries.size());
  les3::baselines::BruteForce scan(&db);
  std::atomic<size_t> wrong{0};
  pool->ParallelFor(count, [&](size_t i) {
    const SetView q = queries.set(static_cast<les3::SetId>(i));
    std::vector<Hit> knn = scan.Knn(q, k);
    if (!SameHits(oracle.Knn(q, k, knn), knn) ||
        !SameHits(oracle.Range(q, delta), scan.Range(q, delta))) {
      ++wrong;
    }
  });
  return wrong.load();
}

bool GateSelfTest(const Oracle& oracle, const les3::SetDatabase& db,
                  const les3::SetDatabase& queries) {
  les3::baselines::BruteForce scan(&db);
  const size_t k = 10;
  const double delta = 0.2;
  // The first query with a full kNN answer and at least two range hits.
  SetView query;
  std::vector<Hit> knn, range;
  for (les3::SetId id = 0; id < queries.size(); ++id) {
    query = queries.set(id);
    knn = scan.Knn(query, k);
    range = scan.Range(query, delta);
    if (knn.size() == k && range.size() >= 2) break;
  }
  if (knn.size() != k || range.size() < 2) return false;
  if (!oracle.CheckKnn(query, k, knn) ||
      !oracle.CheckRange(query, delta, range)) {
    return false;
  }

  auto flip_bit = [](std::vector<Hit> hits) {
    uint64_t bits;
    std::memcpy(&bits, &hits[0].second, sizeof(bits));
    bits ^= 1;
    std::memcpy(&hits[0].second, &bits, sizeof(bits));
    return hits;
  };
  auto wrong_id = [&db](std::vector<Hit> hits) {
    hits[0].first = (hits[0].first + 1) % static_cast<les3::SetId>(db.size());
    return hits;
  };
  auto drop_last = [](std::vector<Hit> hits) {
    hits.pop_back();
    return hits;
  };
  auto inflate_kth = [](std::vector<Hit> hits) {
    hits.back().second = std::nextafter(hits.back().second, 2.0);
    return hits;
  };
  for (const auto& bad : {flip_bit(knn), wrong_id(knn), drop_last(knn),
                          inflate_kth(knn)}) {
    if (oracle.CheckKnn(query, k, bad)) return false;
  }
  for (const auto& bad : {flip_bit(range), wrong_id(range), drop_last(range)}) {
    if (oracle.CheckRange(query, delta, bad)) return false;
  }
  return true;
}

}  // namespace perfbench

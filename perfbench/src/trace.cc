#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "core/similarity.h"
#include "persist/snapshot.h"
#include "search/les3_index.h"
#include "search/maintenance.h"
#include "serve/result_cache.h"
#include "util/random.h"

namespace perfbench {

using les3::SetRecord;
using les3::SetView;
using les3::api::QueryResult;
using les3::serve::ResultCache;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// RequestRegistry

void RequestRegistry::Register(const std::string& key, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_.emplace(key, request);
}

void RequestRegistry::Unregister(const std::string& key, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [begin, end] = inflight_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == request) {
      inflight_.erase(it);
      return;
    }
  }
}

uint64_t RequestRegistry::Lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_.find(key);
  return it == inflight_.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// TracedEngine

TracedEngine::TracedEngine(std::shared_ptr<les3::api::SearchEngine> inner,
                           const RequestRegistry* registry)
    : inner_(std::move(inner)), registry_(registry) {}

void TracedEngine::Log(EngineCall call) const {
  std::lock_guard<std::mutex> lock(calls_mu_);
  calls_.push_back(std::move(call));
}

uint64_t TracedEngine::WriteRequest() const {
  return registry_->current_write.load(std::memory_order_acquire);
}

std::vector<EngineCall> TracedEngine::TakeCalls() {
  std::lock_guard<std::mutex> lock(calls_mu_);
  return std::move(calls_);
}

QueryResult TracedEngine::Knn(SetView query, size_t k) const {
  EngineCall call;
  call.kind = CallKind::kKnn;
  call.k = k;
  call.requests.push_back(registry_->Lookup(ResultCache::KnnKey(query, k)));
  call.queries.emplace_back(query);
  call.start_ns = NowNs();
  QueryResult result = inner_->Knn(query, k);
  call.end_ns = NowNs();
  call.ok = result.status.ok();
  Log(std::move(call));
  return result;
}

QueryResult TracedEngine::RangeImpl(SetView query, double delta) const {
  EngineCall call;
  call.kind = CallKind::kRange;
  call.delta = delta;
  call.requests.push_back(
      registry_->Lookup(ResultCache::RangeKey(query, delta)));
  call.queries.emplace_back(query);
  call.start_ns = NowNs();
  QueryResult result = inner_->Range(query, delta);
  call.end_ns = NowNs();
  call.ok = result.status.ok();
  Log(std::move(call));
  return result;
}

std::vector<QueryResult> TracedEngine::KnnBatch(
    const std::vector<SetRecord>& queries, size_t k) const {
  EngineCall call;
  call.kind = CallKind::kKnnBatch;
  call.k = k;
  for (const SetRecord& q : queries) {
    call.requests.push_back(registry_->Lookup(ResultCache::KnnKey(q, k)));
  }
  call.queries = queries;
  call.start_ns = NowNs();
  std::vector<QueryResult> results = inner_->KnnBatch(queries, k);
  call.end_ns = NowNs();
  for (const QueryResult& r : results) call.ok = call.ok && r.status.ok();
  Log(std::move(call));
  return results;
}

std::vector<QueryResult> TracedEngine::RangeBatchImpl(
    const std::vector<SetRecord>& queries, double delta) const {
  EngineCall call;
  call.kind = CallKind::kRangeBatch;
  call.delta = delta;
  for (const SetRecord& q : queries) {
    call.requests.push_back(
        registry_->Lookup(ResultCache::RangeKey(q, delta)));
  }
  call.queries = queries;
  call.start_ns = NowNs();
  std::vector<QueryResult> results = inner_->RangeBatch(queries, delta);
  call.end_ns = NowNs();
  for (const QueryResult& r : results) call.ok = call.ok && r.status.ok();
  Log(std::move(call));
  return results;
}

les3::Result<les3::SetId> TracedEngine::Insert(SetRecord set) {
  EngineCall call;
  call.kind = CallKind::kInsert;
  call.requests.push_back(WriteRequest());
  call.queries.push_back(set);
  call.start_ns = NowNs();
  les3::Result<les3::SetId> id = inner_->Insert(std::move(set));
  call.end_ns = NowNs();
  call.ok = id.ok();
  if (id.ok()) call.target = id.value();
  Log(std::move(call));
  return id;
}

les3::Status TracedEngine::Delete(les3::SetId id) {
  EngineCall call;
  call.kind = CallKind::kDelete;
  call.requests.push_back(WriteRequest());
  call.target = id;
  call.start_ns = NowNs();
  les3::Status status = inner_->Delete(id);
  call.end_ns = NowNs();
  call.ok = status.ok();
  Log(std::move(call));
  return status;
}

les3::Status TracedEngine::Update(les3::SetId id, SetRecord set) {
  EngineCall call;
  call.kind = CallKind::kUpdate;
  call.requests.push_back(WriteRequest());
  call.target = id;
  call.queries.push_back(set);
  call.start_ns = NowNs();
  les3::Status status = inner_->Update(id, std::move(set));
  call.end_ns = NowNs();
  call.ok = status.ok();
  Log(std::move(call));
  return status;
}

les3::Result<les3::search::MaintenanceReport> TracedEngine::MaintainNow() {
  EngineCall call;
  call.kind = CallKind::kMaintain;
  call.requests.push_back(WriteRequest());
  call.start_ns = NowNs();
  auto report = inner_->MaintainNow();
  call.end_ns = NowNs();
  call.ok = report.ok();
  Log(std::move(call));
  return report;
}

bool TracedEngine::SupportsConcurrentInsert() const {
  return inner_->SupportsConcurrentInsert();
}
les3::Status TracedEngine::Save(const std::string& path) const {
  return inner_->Save(path);
}
uint64_t TracedEngine::IndexBytes() const { return inner_->IndexBytes(); }
std::string TracedEngine::Describe() const { return inner_->Describe(); }
const les3::SetDatabase& TracedEngine::db() const { return inner_->db(); }
std::shared_ptr<const les3::SetDatabase> TracedEngine::StableDb() const {
  return inner_->StableDb();
}

// ---------------------------------------------------------------------------
// Codec timing

void TimeCodec(const les3::serve::Request& request,
               const les3::serve::Response& response, ClientSpan* span) {
  using namespace les3::serve;
  les3::persist::ByteWriter request_frame;
  span->codec_start_ns = NowNs();
  EncodeRequest(request, &request_frame);
  int64_t t1 = NowNs();
  size_t frame_end = 0;
  bool complete = false;
  les3::Status framed = ExtractFrame(request_frame.data().data(),
                                     request_frame.size(), &frame_end,
                                     &complete);
  int64_t t2 = NowNs();
  auto decoded_request =
      DecodeRequest(request_frame.data().data() + 4, frame_end - 4);
  int64_t t3 = NowNs();
  les3::persist::ByteWriter response_frame;
  EncodeResponse(response, request.type, &response_frame);
  int64_t t4 = NowNs();
  auto decoded_response = DecodeResponse(response_frame.data().data() + 4,
                                         response_frame.size() - 4,
                                         request.type);
  int64_t t5 = NowNs();
  span->client_encode_ns = t1 - span->codec_start_ns;
  span->server_decode_ns = t3 - t2;
  span->server_encode_ns = t4 - t3;
  span->client_decode_ns = t5 - t4;
  span->wire_bytes = request_frame.size() + response_frame.size();
  if (!framed.ok() || !complete || !decoded_request.ok() ||
      !decoded_response.ok()) {
    std::fprintf(stderr, "warning: codec replay failed for request %llu\n",
                 static_cast<unsigned long long>(span->request));
  }
}

// ---------------------------------------------------------------------------
// Replay and aggregation

namespace {

using les3::search::Les3Index;
using les3::search::QueryStats;

bool IsRead(CallKind kind) {
  return kind == CallKind::kKnn || kind == CallKind::kRange ||
         kind == CallKind::kKnnBatch || kind == CallKind::kRangeBatch;
}

bool IsKnn(CallKind kind) {
  return kind == CallKind::kKnn || kind == CallKind::kKnnBatch;
}

/// Per-shard indexes rebuilt from the snapshot with the public snapshot
/// constructor, split by id mod S exactly as the sharded engine splits.
struct Replica {
  std::vector<std::unique_ptr<Les3Index>> shards;
  les3::SimilarityMeasure measure = les3::SimilarityMeasure::kJaccard;

  size_t live() const {
    size_t n = 0;
    for (const auto& shard : shards) n += shard->db().num_live();
    return n;
  }
};

bool LoadReplica(const std::string& path, Replica* replica) {
  auto loaded = les3::persist::LoadSnapshot(path);
  if (!loaded.ok() || loaded.value().shards.empty()) return false;
  les3::persist::LoadedSnapshot snapshot = std::move(loaded).ValueOrDie();
  const size_t num_shards = snapshot.shards.size();
  std::vector<std::shared_ptr<les3::SetDatabase>> slices(num_shards);
  for (auto& slice : slices) slice = std::make_shared<les3::SetDatabase>();
  for (les3::SetId gid = 0; gid < snapshot.db->size(); ++gid) {
    les3::SetId local = slices[gid % num_shards]->AddSet(snapshot.db->set(gid));
    if (snapshot.db->is_deleted(gid)) {
      slices[gid % num_shards]->DeleteSet(local);
    }
  }
  replica->measure = snapshot.meta.measure;
  for (size_t s = 0; s < num_shards; ++s) {
    replica->shards.push_back(std::make_unique<Les3Index>(
        slices[s], std::move(snapshot.shards[s].tgm), snapshot.meta.measure));
  }
  return true;
}

/// One replayed read call: per-shard index and probe spans, and each
/// query's counters summed over the shards.
struct ReadReplay {
  std::vector<std::pair<int64_t, int64_t>> index;  // per shard start, end
  std::vector<std::pair<int64_t, int64_t>> probe;
  std::vector<QueryStats> stats;                   // per query
  size_t slowest = 0;
};

void AddStats(const QueryStats& shard, QueryStats* total) {
  total->candidates_verified += shard.candidates_verified;
  total->candidates_size_skipped += shard.candidates_size_skipped;
  total->groups_visited += shard.groups_visited;
  total->groups_pruned += shard.groups_pruned;
  total->columns_scanned += shard.columns_scanned;
  total->results += shard.results;
}

ReadReplay ReplayRead(const Replica& replica, const EngineCall& call) {
  const size_t n = call.queries.size();
  std::vector<SetView> views(call.queries.begin(), call.queries.end());
  ReadReplay replay;
  replay.stats.assign(n, QueryStats());
  std::vector<std::vector<les3::Hit>> hits;
  std::vector<QueryStats> stats;
  std::vector<uint32_t> min_counts(n);
  for (size_t q = 0; q < n; ++q) {
    size_t need = IsKnn(call.kind)
                      ? (views[q].empty() ? 0 : 1)
                      : les3::MinOverlapForThreshold(replica.measure,
                                                     views[q].size(),
                                                     call.delta);
    min_counts[q] = static_cast<uint32_t>(std::min(need, views[q].size() + 1));
  }
  for (const auto& shard : replica.shards) {
    int64_t start = NowNs();
    switch (call.kind) {
      case CallKind::kKnn:
        stats.assign(1, QueryStats());
        shard->Knn(views[0], call.k, &stats[0]);
        break;
      case CallKind::kRange:
        stats.assign(1, QueryStats());
        shard->Range(views[0], call.delta, &stats[0]);
        break;
      case CallKind::kKnnBatch:
        shard->KnnBatch(views.data(), n, call.k, &hits, &stats);
        break;
      default:
        shard->RangeBatch(views.data(), n, call.delta, &hits, &stats);
        break;
    }
    replay.index.emplace_back(start, NowNs());
    for (size_t q = 0; q < n; ++q) AddStats(stats[q], &replay.stats[q]);

    std::vector<uint32_t> counts;
    start = NowNs();
    if (n == 1 && call.kind != CallKind::kKnnBatch &&
        call.kind != CallKind::kRangeBatch) {
      // The solo path skips the probe when the threshold is unreachable.
      if (min_counts[0] <= views[0].size()) {
        std::vector<les3::GroupId> candidates;
        shard->tgm().MatchedCandidates(views[0], min_counts[0], &counts,
                                       &candidates);
      }
    } else {
      std::vector<std::vector<les3::GroupId>> candidates;
      std::vector<size_t> columns;
      shard->tgm().MatchedCandidatesBatch(views.data(), n, min_counts.data(),
                                          &counts, &candidates, &columns);
    }
    replay.probe.emplace_back(start, NowNs());
  }
  for (size_t s = 1; s < replay.index.size(); ++s) {
    auto span = [&](size_t i) {
      return replay.index[i].second - replay.index[i].first;
    };
    if (span(s) > span(replay.slowest)) replay.slowest = s;
  }
  const size_t live = replica.live();
  for (size_t q = 0; q < n; ++q) {
    QueryStats& st = replay.stats[q];
    st.pruning_efficiency =
        IsKnn(call.kind)
            ? les3::search::KnnPruningEfficiency(live, st.candidates_verified,
                                                 call.k)
            : les3::search::RangePruningEfficiency(
                  live, st.candidates_verified, st.results);
  }
  return replay;
}

/// Replays one mutation or maintenance call; returns its [start, end) on
/// the shard(s) it touched, or false on divergence from the served engine.
bool ReplayWrite(Replica* replica, const EngineCall& call,
                 std::pair<int64_t, int64_t>* span) {
  const size_t num_shards = replica->shards.size();
  const size_t s = call.target % num_shards;
  const les3::SetId local = call.target / num_shards;
  bool ok = true;
  span->first = NowNs();
  switch (call.kind) {
    case CallKind::kInsert:
      ok = replica->shards[s]->Insert(call.queries[0]) == local;
      break;
    case CallKind::kDelete:
      ok = replica->shards[s]->Delete(local);
      break;
    case CallKind::kUpdate:
      ok = replica->shards[s]->Update(local, call.queries[0]);
      break;
    default:
      for (auto& shard : replica->shards) {
        les3::search::MaintainIndexOnce(shard.get(),
                                        les3::search::MaintenanceOptions());
      }
      break;
  }
  span->second = NowNs();
  return ok;
}

/// Running mean with its sample count.
struct Mean {
  double sum = 0.0;
  uint64_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double value() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

constexpr uint64_t kSpanFileRequests = 20000;

/// Assigns span ids and streams the spans of the requests `keep` selects
/// to a file.
class SpanWriter {
 public:
  SpanWriter(const std::string& path, std::function<bool(uint64_t)> keep)
      : file_(std::fopen(path.c_str(), "w")), keep_(std::move(keep)) {
    if (file_ != nullptr) {
      std::fprintf(file_, "id\tparent\trequest\tname\tshard\tstart_ns\tend_ns\n");
    }
  }
  ~SpanWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  SpanWriter(const SpanWriter&) = delete;
  SpanWriter& operator=(const SpanWriter&) = delete;

  uint64_t Add(uint64_t parent, uint64_t request, const char* name, int shard,
               int64_t start, int64_t end) {
    uint64_t id = ++count_;
    if (file_ != nullptr && keep_(request)) {
      ++written_;
      std::fprintf(file_, "%llu\t%llu\t%llu\t%s\t%d\t%lld\t%lld\n",
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(parent),
                   static_cast<unsigned long long>(request), name, shard,
                   static_cast<long long>(start), static_cast<long long>(end));
    }
    return id;
  }
  uint64_t count() const { return count_; }
  uint64_t written() const { return written_; }

 private:
  std::FILE* file_;
  std::function<bool(uint64_t)> keep_;
  uint64_t count_ = 0;
  uint64_t written_ = 0;
};

const char* WriteSpanName(CallKind kind) {
  switch (kind) {
    case CallKind::kInsert: return "shard.insert";
    case CallKind::kDelete: return "shard.delete";
    case CallKind::kUpdate: return "shard.update";
    default: return "shard.maintain";
  }
}

}  // namespace

std::vector<LayerMetric> Analyze(const std::string& snapshot_path,
                                 const std::vector<ClientSpan>& clients,
                                 const std::vector<EngineCall>& calls,
                                 uint64_t seed, size_t max_replayed_reads,
                                 const std::string& spans_path, bool* ok) {
  *ok = true;
  Replica replica;
  if (!LoadReplica(snapshot_path, &replica)) {
    std::fprintf(stderr, "error: cannot rebuild shard indexes from %s\n",
                 snapshot_path.c_str());
    *ok = false;
    return {};
  }

  // Replay: every mutation in log order (the replica must track the served
  // state), reads on a seeded sample.
  size_t read_calls = 0;
  for (const EngineCall& call : calls) read_calls += IsRead(call.kind) ? 1 : 0;
  const double keep = read_calls == 0 ? 0.0
                                      : std::min(1.0, double(max_replayed_reads) /
                                                          double(read_calls));
  les3::Rng rng(seed ^ 0x7ace);
  std::vector<ReadReplay> reads(calls.size());
  std::vector<uint8_t> replayed(calls.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> writes(calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    const EngineCall& call = calls[i];
    if (!call.ok) continue;
    if (IsRead(call.kind)) {
      if (!rng.Bernoulli(keep)) continue;
      reads[i] = ReplayRead(replica, call);
    } else if (!ReplayWrite(&replica, call, &writes[i])) {
      std::fprintf(stderr, "error: replay diverged at call %zu\n", i);
      *ok = false;
    }
    replayed[i] = 1;
  }

  // Spans: the client's round trip and codec calls, then the engine call
  // and the replayed shard calls below it, all carrying the request id.
  // All of them feed the metrics; the file keeps the requests of the
  // replayed calls and every stride-th other one, so a pipelined run
  // writes tens of thousands of requests rather than hundreds of
  // thousands.
  std::set<uint64_t> replayed_requests;
  for (size_t i = 0; i < calls.size(); ++i) {
    if (replayed[i]) {
      replayed_requests.insert(calls[i].requests.begin(),
                               calls[i].requests.end());
    }
  }
  const uint64_t stride =
      std::max<uint64_t>(1, clients.size() / kSpanFileRequests);
  SpanWriter out(spans_path, [&](uint64_t request) {
    return request % stride == 0 || replayed_requests.count(request) > 0;
  });
  std::map<uint64_t, uint64_t> round_trip_span;
  for (const ClientSpan& c : clients) {
    uint64_t id = out.Add(0, c.request, "serve.round_trip", -1, c.start_ns,
                          c.end_ns);
    round_trip_span[c.request] = id;
    int64_t t = c.codec_start_ns;
    const std::pair<const char*, int64_t> codec[] = {
        {"serve.codec.client_encode", c.client_encode_ns},
        {"serve.codec.server_decode", c.server_decode_ns},
        {"serve.codec.server_encode", c.server_encode_ns},
        {"serve.codec.client_decode", c.client_decode_ns}};
    for (const auto& [name, ns] : codec) {
      out.Add(id, c.request, name, -1, t, t + ns);
      t += ns;
    }
  }

  Mean engine_us, queries_per_call, scatter_us, index_us, probe_us,
      traverse_us, verified, size_skipped, visited, pruned, columns, pe;
  Mean insert_us, delete_us, update_us, maintain_us;
  std::map<uint64_t, int64_t> engine_ns_of;  // read request -> engine span
  for (size_t i = 0; i < calls.size(); ++i) {
    const EngineCall& call = calls[i];
    const int64_t engine_ns = call.end_ns - call.start_ns;
    if (IsRead(call.kind)) queries_per_call.Add(double(call.queries.size()));
    for (size_t q = 0; q < call.requests.size(); ++q) {
      const uint64_t request = call.requests[q];
      auto rt = round_trip_span.find(request);
      uint64_t engine_span =
          out.Add(rt == round_trip_span.end() ? 0 : rt->second, request,
                  "api.engine", -1, call.start_ns, call.end_ns);
      if (!replayed[i]) {
        if (IsRead(call.kind) && request != 0) engine_ns_of[request] = engine_ns;
        continue;
      }
      if (!IsRead(call.kind)) {
        out.Add(engine_span, request, WriteSpanName(call.kind), -1,
                writes[i].first, writes[i].second);
        continue;
      }
      if (request != 0) engine_ns_of[request] = engine_ns;
      const ReadReplay& replay = reads[i];
      for (size_t s = 0; s < replay.index.size(); ++s) {
        uint64_t index_span =
            out.Add(engine_span, request, "search.index", int(s),
                    replay.index[s].first, replay.index[s].second);
        out.Add(index_span, request, "tgm.probe", int(s),
                replay.probe[s].first, replay.probe[s].second);
      }
      const int64_t slowest = replay.index[replay.slowest].second -
                              replay.index[replay.slowest].first;
      const int64_t probe = replay.probe[replay.slowest].second -
                            replay.probe[replay.slowest].first;
      engine_us.Add(Us(engine_ns));
      index_us.Add(Us(slowest));
      probe_us.Add(Us(probe));
      scatter_us.Add(Us(engine_ns - slowest));
      traverse_us.Add(Us(slowest - probe));
      const QueryStats& st = replay.stats[q];
      verified.Add(double(st.candidates_verified));
      size_skipped.Add(double(st.candidates_size_skipped));
      visited.Add(double(st.groups_visited));
      pruned.Add(double(st.groups_pruned));
      columns.Add(double(st.columns_scanned));
      pe.Add(st.pruning_efficiency);
    }
    if (replayed[i] && !IsRead(call.kind)) {
      double us = Us(writes[i].second - writes[i].first);
      switch (call.kind) {
        case CallKind::kInsert: insert_us.Add(us); break;
        case CallKind::kDelete: delete_us.Add(us); break;
        case CallKind::kUpdate: update_us.Add(us); break;
        default: maintain_us.Add(us); break;
      }
    }
  }

  // Client-side decomposition of every traced read: round trip = engine +
  // codec + residual (io, queue wait, coalescing, loopback).
  Mean round_trip_us, encode_us, decode_us, bytes, residual_us, all_engine_us;
  for (const ClientSpan& c : clients) {
    if (c.type != les3::serve::MsgType::kKnn &&
        c.type != les3::serve::MsgType::kRange) {
      continue;
    }
    const int64_t rt = c.end_ns - c.start_ns;
    const int64_t encode = c.client_encode_ns + c.server_encode_ns;
    const int64_t decode = c.server_decode_ns + c.client_decode_ns;
    auto engine = engine_ns_of.find(c.request);
    const int64_t engine_ns = engine == engine_ns_of.end() ? 0 : engine->second;
    if (engine != engine_ns_of.end()) all_engine_us.Add(Us(engine_ns));
    round_trip_us.Add(Us(rt));
    encode_us.Add(Us(encode));
    decode_us.Add(Us(decode));
    bytes.Add(double(c.wire_bytes));
    residual_us.Add(Us(rt - engine_ns - encode - decode));
  }

  auto metric = [](const char* name, const Mean& m, const char* unit) {
    return LayerMetric{name, m.value(), unit, m.n};
  };
  std::vector<LayerMetric> metrics = {
      metric("serve.round_trip_us", round_trip_us, "us"),
      metric("serve.residual_us", residual_us, "us"),
      metric("serve.wire_encode_us", encode_us, "us"),
      metric("serve.wire_decode_us", decode_us, "us"),
      metric("serve.wire_bytes_per_query", bytes, "bytes"),
      metric("api.engine_us", all_engine_us, "us"),
      metric("api.queries_per_call", queries_per_call, "count"),
      metric("shard.scatter_us", scatter_us, "us"),
      metric("search.index_us", index_us, "us"),
      metric("search.traverse_verify_us", traverse_us, "us"),
      metric("tgm.probe_us", probe_us, "us"),
      metric("tgm.columns_scanned", columns, "count"),
      metric("search.candidates_verified", verified, "count"),
      metric("search.candidates_size_skipped", size_skipped, "count"),
      metric("search.groups_visited", visited, "count"),
      metric("search.groups_pruned", pruned, "count"),
      metric("search.pruning_efficiency", pe, "ratio"),
      metric("shard.insert_us", insert_us, "us"),
      metric("shard.delete_us", delete_us, "us"),
      metric("shard.update_us", update_us, "us"),
      metric("shard.maintain_us", maintain_us, "us"),
  };
  metrics.push_back({"trace.replayed_engine_us", engine_us.value(), "us",
                     engine_us.n});
  metrics.push_back({"trace.spans", double(out.count()), "count", out.written()});
  return metrics;
}

}  // namespace perfbench

// Tracing for the per-layer run. Every span is recorded from the
// benchmark's own files, around calls into each module's public functions:
//
//   serve.round_trip   client side, from the write that carried the
//                      request to the arrival of its reply
//   serve.codec.*      the four wire-codec calls a request and its reply go
//                      through (serve/wire.h), timed on the same messages
//                      after the reply arrived
//   api.engine         TracedEngine, the api::SearchEngine wrapper handed
//                      to serve::Server
//   search.index       the same call replayed on per-shard
//                      search::Les3Index objects rebuilt from the snapshot
//   tgm.probe          the replay's tgm::Tgm::MatchedCandidates(Batch) call
//   shard.insert/...   mutations and maintenance replayed on those indexes
//
// Spans of one request share its id. They stay in memory during the run;
// Analyze replays, aggregates and writes them out at the end.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/search_engine.h"
#include "serve/wire.h"

namespace perfbench {

int64_t NowNs();

/// Lets the engine wrapper name the request it is serving. Readers
/// register a request's result-cache key (serve::ResultCache::KnnKey /
/// RangeKey) while it is in flight; the single write connection publishes
/// the id of its one outstanding write.
class RequestRegistry {
 public:
  void Register(const std::string& key, uint64_t request);
  void Unregister(const std::string& key, uint64_t request);
  /// Any in-flight request with this key; 0 when there is none.
  uint64_t Lookup(const std::string& key) const;

  std::atomic<uint64_t> current_write{0};

 private:
  mutable std::mutex mu_;
  std::unordered_multimap<std::string, uint64_t> inflight_;
};

enum class CallKind : uint8_t {
  kKnn, kRange, kKnnBatch, kRangeBatch, kInsert, kDelete, kUpdate, kMaintain,
};

/// One call into the served engine, as TracedEngine saw it.
struct EngineCall {
  CallKind kind = CallKind::kKnn;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<uint64_t> requests;        // one per query, or the write's id
  std::vector<les3::SetRecord> queries;  // reads; Insert/Update content
  size_t k = 0;
  double delta = 0.0;
  les3::SetId target = 0;  // Delete/Update target; Insert's assigned id
  bool ok = true;
};

/// \brief The api::SearchEngine handed to serve::Server in the traced run:
/// forwards every call to the real engine and logs it as an EngineCall.
class TracedEngine : public les3::api::SearchEngine {
 public:
  TracedEngine(std::shared_ptr<les3::api::SearchEngine> inner,
               const RequestRegistry* registry);

  les3::api::QueryResult Knn(les3::SetView query, size_t k) const override;
  std::vector<les3::api::QueryResult> KnnBatch(
      const std::vector<les3::SetRecord>& queries, size_t k) const override;
  les3::Result<les3::SetId> Insert(les3::SetRecord set) override;
  les3::Status Delete(les3::SetId id) override;
  les3::Status Update(les3::SetId id, les3::SetRecord set) override;
  les3::Result<les3::search::MaintenanceReport> MaintainNow() override;
  bool SupportsConcurrentInsert() const override;
  les3::Status Save(const std::string& path) const override;
  uint64_t IndexBytes() const override;
  std::string Describe() const override;
  const les3::SetDatabase& db() const override;
  std::shared_ptr<const les3::SetDatabase> StableDb() const override;

  /// The calls logged so far, in completion order.
  std::vector<EngineCall> TakeCalls();

 protected:
  les3::api::QueryResult RangeImpl(les3::SetView query,
                                   double delta) const override;
  std::vector<les3::api::QueryResult> RangeBatchImpl(
      const std::vector<les3::SetRecord>& queries,
      double delta) const override;

 private:
  void Log(EngineCall call) const;
  uint64_t WriteRequest() const;

  std::shared_ptr<les3::api::SearchEngine> inner_;
  const RequestRegistry* registry_;
  mutable std::mutex calls_mu_;
  mutable std::vector<EngineCall> calls_;
};

/// What one client saw for one request.
struct ClientSpan {
  uint64_t request = 0;
  les3::serve::MsgType type = les3::serve::MsgType::kPing;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t codec_start_ns = 0;  // the four codec calls ran back to back
  int64_t client_encode_ns = 0;
  int64_t server_decode_ns = 0;
  int64_t server_encode_ns = 0;
  int64_t client_decode_ns = 0;
  uint64_t wire_bytes = 0;  // request frame + reply frame
};

/// Times EncodeRequest, DecodeRequest, EncodeResponse and DecodeResponse
/// on `request` and `response` into `span`'s codec fields.
void TimeCodec(const les3::serve::Request& request,
               const les3::serve::Response& response, ClientSpan* span);

/// One per-layer metric with the number of samples behind it.
struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// \brief Replays the logged engine calls on per-shard indexes rebuilt from
/// `snapshot_path` (every mutation, in log order, and a seeded sample of at
/// most `max_replayed_reads` read calls), then aggregates the client spans,
/// engine calls and replay spans into per-layer metrics and writes the
/// spans of the replayed requests and of a stride sample of the others to
/// `spans_path` (one per line: id, parent, request, name, shard, start_ns,
/// end_ns). Sets *ok to false when the replay diverges from the served
/// engine (an insert landing on another id).
std::vector<LayerMetric> Analyze(const std::string& snapshot_path,
                                 const std::vector<ClientSpan>& clients,
                                 const std::vector<EngineCall>& calls,
                                 uint64_t seed, size_t max_replayed_reads,
                                 const std::string& spans_path, bool* ok);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "api/engine_builder.h"
#include "serve/client.h"
#include "serve/result_cache.h"
#include "serve/wire.h"

namespace perfbench {

using les3::serve::Client;
using les3::serve::MsgType;
using les3::serve::Request;
using les3::serve::Response;

namespace {

constexpr uint32_t kIoTimeoutMs = 30000;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

Request ReadRequest(const ReadSpec& spec, les3::SetView query) {
  Request request;
  request.type = spec.knn ? MsgType::kKnn : MsgType::kRange;
  request.k = static_cast<uint32_t>(spec.k);
  request.delta = spec.delta;
  request.queries.emplace_back(query);
  return request;
}

std::string CacheKey(const ReadSpec& spec, les3::SetView query) {
  return spec.knn ? les3::serve::ResultCache::KnnKey(query, spec.k)
                  : les3::serve::ResultCache::RangeKey(query, spec.delta);
}

/// Runs body(c, &results[c]) on one thread per connection and merges.
void PerConnection(size_t connections,
                   const std::function<void(size_t, LoadResult*)>& body,
                   LoadResult* out) {
  std::vector<LoadResult> results(connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(body, c, &results[c]);
  }
  for (auto& t : threads) t.join();
  for (auto& r : results) out->Merge(std::move(r));
}

int ConnectSocket(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{kIoTimeoutMs / 1000, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return fd;
}

bool SendAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

les3::serve::ServerOptions ServeDefaults() {
  les3::serve::ServerOptions options;
  options.io_workers = 2;
  options.executors = 0;
  options.batch_window = 16;
  options.cache_bytes = size_t{64} << 20;
  return options;
}

std::string SetUp(const les3::SetDatabase& db, const std::string& snapshot_path,
                  const RequestRegistry* registry, ServerSetup* out) {
  les3::SetDatabase copy = db;  // the engine takes ownership; not timed
  les3::api::EngineOptions options;
  options.backend = les3::api::Backend::kShardedLes3;
  options.num_shards = kShards;

  const int64_t t0 = NowNs();
  auto built = les3::api::EngineBuilder::Build(std::move(copy), options);
  if (!built.ok()) return "build: " + built.status().ToString();
  const int64_t t1 = NowNs();
  les3::Status saved = built.value()->Save(snapshot_path);
  if (!saved.ok()) return "save: " + saved.ToString();
  const int64_t t2 = NowNs();
  auto opened = les3::api::EngineBuilder::Open(snapshot_path);
  if (!opened.ok()) return "open: " + opened.status().ToString();
  const int64_t t3 = NowNs();
  built = les3::Status::Internal("released");
  out->engine = std::move(opened).ValueOrDie();
  std::shared_ptr<les3::api::SearchEngine> served = out->engine;
  if (registry != nullptr) {
    out->traced = std::make_shared<TracedEngine>(out->engine, registry);
    served = out->traced;
  }
  out->server = std::make_unique<les3::serve::Server>(served, ServeDefaults());
  les3::Status started = out->server->Start();
  if (!started.ok()) return "start: " + started.ToString();
  auto client = Client::Connect("127.0.0.1", out->server->port(), kIoTimeoutMs);
  if (!client.ok()) return "connect: " + client.status().ToString();
  les3::Status pong = client.value().Ping();
  if (!pong.ok()) return "ping: " + pong.ToString();
  const int64_t t4 = NowNs();

  out->setup_s = Seconds(t4 - t0);
  out->build_s = Seconds(t1 - t0);
  out->save_s = Seconds(t2 - t1);
  out->open_s = Seconds(t3 - t2);
  std::error_code error;
  auto bytes = std::filesystem::file_size(snapshot_path, error);
  if (!error) out->snapshot_mb = static_cast<double>(bytes) / (1 << 20);
  return "";
}

void LoadResult::Merge(LoadResult other) {
  reads_attempted += other.reads_attempted;
  reads_failed += other.reads_failed;
  read_ms.insert(read_ms.end(), other.read_ms.begin(), other.read_ms.end());
  read_at_ns.insert(read_at_ns.end(), other.read_at_ns.begin(),
                    other.read_at_ns.end());
  served.insert(served.end(), other.served.begin(), other.served.end());
  for (auto& r : other.replies) replies.push_back(std::move(r));
  writes_attempted += other.writes_attempted;
  writes_failed += other.writes_failed;
  write_ms.insert(write_ms.end(), other.write_ms.begin(), other.write_ms.end());
  write_at_ns.insert(write_at_ns.end(), other.write_at_ns.begin(),
                     other.write_at_ns.end());
  writer_max_late_ms = std::max(writer_max_late_ms, other.writer_max_late_ms);
  maintains += other.maintains;
  maintenance += other.maintenance;
  inserted.insert(inserted.end(), other.inserted.begin(), other.inserted.end());
  for (auto& s : other.spans) spans.push_back(s);
}

void ClosedLoopReads(uint16_t port, size_t connections,
                     const les3::SetDatabase& queries, const NextQuery& next,
                     const ReadSpec& spec, int64_t deadline_ns,
                     bool keep_replies, Tracing* tracing, LoadResult* out) {
  PerConnection(connections, [&](size_t c, LoadResult* result) {
    auto connected = Client::Connect("127.0.0.1", port, kIoTimeoutMs);
    if (!connected.ok()) {
      ++result->reads_attempted;
      ++result->reads_failed;
      return;
    }
    Client client = std::move(connected).ValueOrDie();
    uint32_t q = 0;
    while (NowNs() < deadline_ns && next(c, &q)) {
      const les3::SetView query = queries.set(q);
      uint64_t request = 0;
      std::string key;
      if (tracing != nullptr) {
        request = tracing->next_request.fetch_add(1);
        key = CacheKey(spec, query);
        tracing->registry->Register(key, request);
      }
      ++result->reads_attempted;
      const int64_t start = NowNs();
      auto reply = spec.knn ? client.Knn(query, spec.k)
                            : client.Range(query, spec.delta);
      const int64_t end = NowNs();
      if (tracing != nullptr) tracing->registry->Unregister(key, request);
      if (!reply.ok()) {
        ++result->reads_failed;
        if (reply.status().code() == les3::StatusCode::kIOError) break;
        continue;
      }
      result->read_ms.push_back(Millis(end - start));
      result->read_at_ns.push_back(end);
      result->served.push_back(q);
      if (tracing != nullptr) {
        ClientSpan span;
        span.request = request;
        span.type = spec.knn ? MsgType::kKnn : MsgType::kRange;
        span.start_ns = start;
        span.end_ns = end;
        Response response;
        response.results.push_back(reply.value());
        TimeCodec(ReadRequest(spec, query), response, &span);
        result->spans.push_back(span);
      }
      if (keep_replies) result->replies.push_back(std::move(reply).ValueOrDie());
    }
  }, out);
}

void PipelinedReads(uint16_t port, size_t connections, size_t window,
                    const les3::SetDatabase& queries,
                    const NextQuery& next, const ReadSpec& spec,
                    int64_t deadline_ns, bool keep_replies, Tracing* tracing,
                    LoadResult* out) {
  PerConnection(connections, [&](size_t c, LoadResult* result) {
    struct Pending {
      uint32_t query = 0;
      uint64_t request = 0;
      int64_t sent_ns = 0;
    };
    int fd = ConnectSocket(port);
    if (fd < 0) {
      ++result->reads_attempted;
      ++result->reads_failed;
      return;
    }
    std::unordered_map<uint32_t, Pending> pending;
    std::vector<uint8_t> in;
    std::vector<uint8_t> chunk(64 * 1024);
    uint32_t next_seq = 1;
    bool more = true;
    bool broken = false;  // an unframeable reply: the stream is lost
    const MsgType type = spec.knn ? MsgType::kKnn : MsgType::kRange;
    for (;;) {
      // Top the window up; everything new goes out in one write.
      les3::persist::ByteWriter frames;
      std::vector<uint32_t> batch;
      while (more && pending.size() < window) {
        uint32_t q = 0;
        if (NowNs() >= deadline_ns || !next(c, &q)) {
          more = false;
          break;
        }
        Request request = ReadRequest(spec, queries.set(q));
        request.seq = next_seq++;
        Pending p;
        p.query = q;
        if (tracing != nullptr) {
          p.request = tracing->next_request.fetch_add(1);
          tracing->registry->Register(CacheKey(spec, queries.set(q)), p.request);
        }
        les3::serve::EncodeRequest(request, &frames);
        pending[request.seq] = p;
        batch.push_back(request.seq);
      }
      if (!batch.empty()) {
        const int64_t sent = NowNs();
        for (uint32_t seq : batch) pending[seq].sent_ns = sent;
        result->reads_attempted += batch.size();
        if (!SendAll(fd, frames.data())) break;
      }
      if (pending.empty()) break;

      ssize_t n = recv(fd, chunk.data(), chunk.size(), 0);
      const int64_t arrived = NowNs();
      if (n <= 0) break;
      in.insert(in.end(), chunk.begin(), chunk.begin() + n);
      size_t consumed = 0;
      for (;;) {
        size_t frame_end = 0;
        bool complete = false;
        les3::Status framed = les3::serve::ExtractFrame(
            in.data() + consumed, in.size() - consumed, &frame_end, &complete);
        if (!framed.ok()) {
          broken = true;
          break;
        }
        if (!complete) break;
        auto reply = les3::serve::DecodeResponse(in.data() + consumed + 4,
                                                 frame_end - 4, type);
        consumed += frame_end;
        auto it = reply.ok() ? pending.find(reply.value().seq) : pending.end();
        if (it == pending.end()) {
          ++result->reads_failed;  // undecodable or unmatched reply
          continue;
        }
        const Pending p = it->second;
        pending.erase(it);
        const les3::SetView query = queries.set(p.query);
        if (tracing != nullptr) {
          tracing->registry->Unregister(CacheKey(spec, query), p.request);
        }
        Response& response = reply.value();
        if (response.status != les3::serve::WireStatus::kOk ||
            response.results.size() != 1) {
          ++result->reads_failed;
          continue;
        }
        result->read_ms.push_back(Millis(arrived - p.sent_ns));
        result->read_at_ns.push_back(arrived);
        result->served.push_back(p.query);
        if (tracing != nullptr) {
          ClientSpan span;
          span.request = p.request;
          span.type = type;
          span.start_ns = p.sent_ns;
          span.end_ns = arrived;
          Request request = ReadRequest(spec, query);
          request.seq = response.seq;
          TimeCodec(request, response, &span);
          result->spans.push_back(span);
        }
        if (keep_replies) result->replies.push_back(std::move(response.results[0]));
      }
      in.erase(in.begin(), in.begin() + consumed);
      if (broken) break;
    }
    // Whatever is still outstanding never got an answer.
    result->reads_failed += pending.size();
    if (tracing != nullptr) {
      for (const auto& [seq, p] : pending) {
        tracing->registry->Unregister(CacheKey(spec, queries.set(p.query)),
                                      p.request);
      }
    }
    close(fd);
  }, out);
}

void SendWrites(uint16_t port, const std::vector<WriteOp>& writes,
                double rate, size_t maintain_every, int64_t deadline_ns,
                int64_t start_ns, Tracing* tracing, LoadResult* out) {
  auto connected = Client::Connect("127.0.0.1", port, kIoTimeoutMs);
  if (!connected.ok()) {
    ++out->writes_attempted;
    ++out->writes_failed;
    return;
  }
  Client client = std::move(connected).ValueOrDie();
  auto traced = [&](MsgType type, const WriteOp* op, uint64_t request,
                    int64_t start, int64_t end, const Response& response) {
    ClientSpan span;
    span.request = request;
    span.type = type;
    span.start_ns = start;
    span.end_ns = end;
    Request wire;
    wire.type = type;
    if (op != nullptr) {
      wire.target_id = op->target;
      if (op->kind != WriteKind::kDelete) wire.queries.push_back(op->set);
    }
    TimeCodec(wire, response, &span);
    out->spans.push_back(span);
  };

  for (size_t i = 0; i < writes.size(); ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(double(i) * 1e9 / rate);
    if (due >= deadline_ns) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const int64_t sent = NowNs();
    out->writer_max_late_ms = std::max(out->writer_max_late_ms, Millis(sent - due));
    uint64_t request = 0;
    if (tracing != nullptr) {
      request = tracing->next_request.fetch_add(1);
      tracing->registry->current_write.store(request, std::memory_order_release);
    }
    const WriteOp& op = writes[i];
    ++out->writes_attempted;
    les3::Status status;
    Response response;
    MsgType type = MsgType::kInsert;
    switch (op.kind) {
      case WriteKind::kInsert: {
        auto id = client.Insert(op.set);
        status = id.status();
        if (id.ok()) {
          out->inserted.emplace_back(id.value(), static_cast<uint32_t>(i));
          response.inserted_id = id.value();
        }
        break;
      }
      case WriteKind::kDelete:
        type = MsgType::kDelete;
        status = client.Delete(op.target);
        break;
      case WriteKind::kUpdate:
        type = MsgType::kUpdate;
        status = client.Update(op.target, op.set);
        break;
    }
    const int64_t done = NowNs();
    if (!status.ok()) {
      ++out->writes_failed;
      std::fprintf(stderr, "write %zu failed: %s\n", i, status.ToString().c_str());
      if (status.code() == les3::StatusCode::kIOError) break;
      continue;
    }
    out->write_ms.push_back(Millis(done - due));
    out->write_at_ns.push_back(due);
    if (tracing != nullptr) traced(type, &op, request, sent, done, response);

    if ((i + 1) % maintain_every == 0) {
      if (tracing != nullptr) {
        request = tracing->next_request.fetch_add(1);
        tracing->registry->current_write.store(request, std::memory_order_release);
      }
      ++out->writes_attempted;
      const int64_t m0 = NowNs();
      auto report = client.MaintainNow();
      const int64_t m1 = NowNs();
      if (!report.ok()) {
        ++out->writes_failed;
        continue;
      }
      ++out->maintains;
      out->maintenance += report.value();
      if (tracing != nullptr) {
        Response maintained;
        maintained.maintenance_splits = report.value().splits;
        maintained.maintenance_recomputes = report.value().recomputes;
        maintained.maintenance_bits_dropped = report.value().bits_dropped;
        traced(MsgType::kMaintainNow, nullptr, request, m0, m1, maintained);
      }
    }
  }
}

}  // namespace perfbench

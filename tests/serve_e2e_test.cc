// End-to-end loopback suite for the serving front-end (serve/server.h):
// an in-process Server on an ephemeral port, driven through serve::Client
// and through raw sockets.
//
// The load-bearing property is the differential one: every response must
// agree byte-for-byte with a direct call on the underlying engine —
// with the cache cold, warm, disabled, and across interleaved Inserts
// (the exactness argument of serve/result_cache.h, tested rather than
// trusted). Responses carry no timing, so hit-exact (ids and similarity
// bit patterns) equals byte-exact.
//
// ServeE2E.ConcurrentClientsAndInserts is the TSan leg: concurrent
// clients and an inserter hammer one server; the CI TSan lane runs it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine_builder.h"
#include "datagen/generators.h"
#include "serve/client.h"
#include "serve/server.h"

namespace les3 {
namespace serve {
namespace {

using api::EngineOptions;
using api::SearchEngine;

std::shared_ptr<SetDatabase> MakeDb(uint64_t seed, uint32_t num_sets = 400) {
  datagen::ZipfOptions opts;
  opts.num_sets = num_sets;
  opts.num_tokens = 120;
  opts.avg_set_size = 8;
  opts.zipf_exponent = 0.8;
  opts.seed = seed;
  return std::make_shared<SetDatabase>(datagen::GenerateZipf(opts));
}

/// Cheap build knobs (api_test.cc's FastOptions) + two shards so the
/// engine under the server is the production backend.
EngineOptions FastOptions() {
  EngineOptions options;
  options.num_groups = 24;
  options.num_shards = 2;
  options.cascade.init_groups = 16;
  options.cascade.min_group_size = 10;
  options.cascade.pairs_per_model = 2000;
  options.cascade.seed = 7;
  return options;
}

std::shared_ptr<SearchEngine> BuildEngine(uint64_t seed) {
  auto engine =
      api::EngineBuilder::Build(MakeDb(seed), "sharded_les3", FastOptions());
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::shared_ptr<SearchEngine>(std::move(engine).ValueOrDie());
}

/// Byte-exact agreement: same ids, same similarity BIT PATTERNS, same
/// order (the f64 wire encoding round-trips bits).
void ExpectExactHits(const std::vector<Hit>& expected,
                     const std::vector<Hit>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, actual[i].first) << label << " rank " << i;
    EXPECT_EQ(expected[i].second, actual[i].second) << label << " rank " << i;
  }
}

std::vector<SetRecord> SampleQueries(const SetDatabase& db, size_t n) {
  std::vector<SetRecord> queries;
  size_t stride = db.size() / n;
  for (size_t i = 0; i < db.size() && queries.size() < n; i += stride) {
    queries.emplace_back(db.set(static_cast<SetId>(i)));
  }
  return queries;
}

Client MustConnect(uint16_t port, uint32_t timeout_ms = 10000) {
  auto client = Client::Connect("127.0.0.1", port, timeout_ms);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).ValueOrDie();
}

/// A raw TCP connection for the malformed-frame and pipelining tests —
/// sends arbitrary bytes the well-behaved Client cannot produce.
class RawConn {
 public:
  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connect — the flow-control
  /// test uses it so server replies back up instead of vanishing into
  /// kernel buffers.
  explicit RawConn(uint16_t port, int rcvbuf = 0) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (rcvbuf > 0) {
      setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    timeval tv{10, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { Close(); }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  void Send(const void* data, size_t size) {
    ASSERT_EQ(send(fd_, data, size, MSG_NOSIGNAL),
              static_cast<ssize_t>(size));
  }
  void Send(const persist::ByteWriter& frame) {
    Send(frame.data().data(), frame.size());
  }

  /// Like Send but tolerates partial writes — for buffers larger than
  /// the socket buffers (the sender may block while the server applies
  /// read backpressure; a concurrent reader keeps it live).
  void SendLoop(const persist::ByteWriter& frames) {
    const uint8_t* p = frames.data().data();
    size_t left = frames.size();
    while (left > 0) {
      ssize_t n = send(fd_, p, left, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      p += n;
      left -= static_cast<size_t>(n);
    }
  }

  /// Half-close: FIN the write side, keep reading replies.
  void ShutdownWrite() { shutdown(fd_, SHUT_WR); }

  /// Reads one response frame (decoded with `type`'s OK-body shape).
  Result<Response> RecvResponse(MsgType type) {
    for (;;) {
      size_t frame_end = 0;
      bool complete = false;
      LES3_RETURN_NOT_OK(
          ExtractFrame(in_.data(), in_.size(), &frame_end, &complete));
      if (complete) {
        auto response = DecodeResponse(in_.data() + 4, frame_end - 4, type);
        in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(frame_end));
        return response;
      }
      uint8_t buf[4096];
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return Status::IOError("connection closed or timed out");
      in_.insert(in_.end(), buf, buf + n);
    }
  }

  /// True when the server closed the connection (clean EOF after any
  /// buffered bytes are drained).
  bool ServerClosed() {
    uint8_t buf[4096];
    for (;;) {
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;  // timeout: still open
    }
  }

 private:
  int fd_ = -1;
  std::vector<uint8_t> in_;
};

Request PingRequest(uint32_t seq) {
  Request request;
  request.seq = seq;
  request.type = MsgType::kPing;
  return request;
}

// ---------------------------------------------------------------------------

class ServeE2ETest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    engine_ = BuildEngine(11);
    options.port = 0;
    server_ = std::make_unique<Server>(engine_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::shared_ptr<SearchEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeE2ETest, PingAndDescribe) {
  StartServer();
  Client client = MustConnect(server_->port());
  EXPECT_TRUE(client.Ping().ok());
  auto describe = client.Describe();
  ASSERT_TRUE(describe.ok()) << describe.status().ToString();
  // Engine description plus the serving-layer suffix.
  EXPECT_NE(describe.value().find("sharded_les3"), std::string::npos);
  EXPECT_NE(describe.value().find("serve:"), std::string::npos);
}

TEST_F(ServeE2ETest, KnnMatchesDirectEngineColdAndCached) {
  StartServer();
  Client client = MustConnect(server_->port());
  for (const SetRecord& query : SampleQueries(engine_->db(), 10)) {
    std::vector<Hit> direct = engine_->Knn(query.view(), 10).hits;
    auto cold = client.Knn(query.view(), 10);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ExpectExactHits(direct, cold.value(), "cold");
    // Second lookup is served from the cache — still byte-exact.
    auto warm = client.Knn(query.view(), 10);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ExpectExactHits(direct, warm.value(), "warm");
  }
  ASSERT_NE(server_->cache(), nullptr);
  EXPECT_GE(server_->cache()->stats().hits, 10u);
}

TEST_F(ServeE2ETest, RangeMatchesDirectEngineColdAndCached) {
  StartServer();
  Client client = MustConnect(server_->port());
  for (const SetRecord& query : SampleQueries(engine_->db(), 10)) {
    std::vector<Hit> direct = engine_->Range(query.view(), 0.5).hits;
    auto cold = client.Range(query.view(), 0.5);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ExpectExactHits(direct, cold.value(), "cold");
    auto warm = client.Range(query.view(), 0.5);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ExpectExactHits(direct, warm.value(), "warm");
  }
}

TEST_F(ServeE2ETest, CacheDisabledMatchesCacheEnabled) {
  StartServer();  // cache on
  ServerOptions uncached_options;
  uncached_options.port = 0;
  uncached_options.cache_bytes = 0;
  Server uncached(engine_, uncached_options);
  ASSERT_TRUE(uncached.Start().ok());
  EXPECT_EQ(uncached.cache(), nullptr);

  Client cached_client = MustConnect(server_->port());
  Client uncached_client = MustConnect(uncached.port());
  for (const SetRecord& query : SampleQueries(engine_->db(), 8)) {
    for (int pass = 0; pass < 2; ++pass) {
      auto cached = cached_client.Knn(query.view(), 5);
      auto plain = uncached_client.Knn(query.view(), 5);
      ASSERT_TRUE(cached.ok() && plain.ok());
      ExpectExactHits(plain.value(), cached.value(),
                      "pass " + std::to_string(pass));
    }
  }
  uncached.Shutdown();
}

TEST_F(ServeE2ETest, BatchesMatchDirectEngine) {
  StartServer();
  Client client = MustConnect(server_->port());
  std::vector<SetRecord> queries = SampleQueries(engine_->db(), 6);
  {
    auto over_wire = client.KnnBatch(queries, 7);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    std::vector<api::QueryResult> direct = engine_->KnnBatch(queries, 7);
    ASSERT_EQ(over_wire.value().size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectExactHits(direct[i].hits, over_wire.value()[i],
                      "knn batch " + std::to_string(i));
    }
  }
  {
    auto over_wire = client.RangeBatch(queries, 0.6);
    ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
    std::vector<api::QueryResult> direct = engine_->RangeBatch(queries, 0.6);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectExactHits(direct[i].hits, over_wire.value()[i],
                      "range batch " + std::to_string(i));
    }
  }
}

// The differential the cache's exactness argument is judged by: Inserts
// interleave with cached queries, and after every mutation the served
// answer must equal what the engine computes fresh at that moment.
TEST_F(ServeE2ETest, InterleavedInsertsStayExact) {
  StartServer();
  Client client = MustConnect(server_->port());
  std::vector<SetRecord> queries = SampleQueries(engine_->db(), 4);
  size_t initial_size = engine_->db().size();

  for (uint32_t round = 0; round < 6; ++round) {
    // Warm the cache on every query.
    for (const SetRecord& query : queries) {
      auto warm = client.Knn(query.view(), 8);
      ASSERT_TRUE(warm.ok());
      ExpectExactHits(engine_->Knn(query.view(), 8).hits, warm.value(),
                      "pre-insert round " + std::to_string(round));
    }
    // Insert a set overlapping the queries so answers actually change.
    SetRecord new_set(queries[round % queries.size()]);
    auto inserted = client.Insert(new_set);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    // Every post-insert answer must reflect the mutation: byte-exact
    // against a fresh engine computation, never a stale cache entry.
    for (const SetRecord& query : queries) {
      auto after = client.Knn(query.view(), 8);
      ASSERT_TRUE(after.ok());
      ExpectExactHits(engine_->Knn(query.view(), 8).hits, after.value(),
                      "post-insert round " + std::to_string(round));
      auto range_after = client.Range(query.view(), 0.5);
      ASSERT_TRUE(range_after.ok());
      ExpectExactHits(engine_->Range(query.view(), 0.5).hits,
                      range_after.value(),
                      "post-insert range round " + std::to_string(round));
    }
  }
  EXPECT_EQ(engine_->db().size(), initial_size + 6);
  ASSERT_NE(server_->cache(), nullptr);
  // The inserts actually exercised the invalidation path.
  EXPECT_GE(server_->cache()->stats().invalidations, 1u);
}

// Satellite of the mutability work: Delete and Update over the wire must
// invalidate the result cache exactly like Insert — every post-mutation
// answer is byte-exact against a fresh engine computation, and a
// tombstoned id never reappears from a stale cache entry.
TEST_F(ServeE2ETest, InterleavedMutationsStayExact) {
  StartServer();
  Client client = MustConnect(server_->port());
  std::vector<SetRecord> queries = SampleQueries(engine_->db(), 4);

  for (uint32_t round = 0; round < 4; ++round) {
    // Warm the cache on every query.
    for (const SetRecord& query : queries) {
      auto warm = client.Knn(query.view(), 8);
      ASSERT_TRUE(warm.ok());
      ExpectExactHits(engine_->Knn(query.view(), 8).hits, warm.value(),
                      "warm round " + std::to_string(round));
    }
    // Delete the current top hit of one query: the cached answer for
    // that query is now wrong and must not be served.
    const SetRecord& victim_query = queries[round % queries.size()];
    auto top = client.Knn(victim_query.view(), 1);
    ASSERT_TRUE(top.ok());
    ASSERT_FALSE(top.value().empty());
    const SetId victim = top.value()[0].first;
    ASSERT_TRUE(client.Delete(victim).ok());
    // Double delete is a typed NotFound, not a transport error.
    Status again = client.Delete(victim);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.code(), StatusCode::kNotFound);

    for (const SetRecord& query : queries) {
      auto after = client.Knn(query.view(), 8);
      ASSERT_TRUE(after.ok());
      ExpectExactHits(engine_->Knn(query.view(), 8).hits, after.value(),
                      "post-delete round " + std::to_string(round));
      for (const Hit& hit : after.value()) EXPECT_NE(hit.first, victim);
      auto range_after = client.Range(query.view(), 0.5);
      ASSERT_TRUE(range_after.ok());
      ExpectExactHits(engine_->Range(query.view(), 0.5).hits,
                      range_after.value(),
                      "post-delete range round " + std::to_string(round));
    }

    // Update another live set to exactly one query's content: it must
    // surface at similarity 1 on the next (uncached) answer.
    SetId updated = 0;
    while (engine_->db().is_deleted(updated)) ++updated;
    ASSERT_TRUE(client.Update(updated, victim_query).ok());
    auto post_update = client.Knn(victim_query.view(), 8);
    ASSERT_TRUE(post_update.ok());
    ExpectExactHits(engine_->Knn(victim_query.view(), 8).hits,
                    post_update.value(),
                    "post-update round " + std::to_string(round));
    bool found = false;
    for (const Hit& hit : post_update.value()) {
      if (hit.first == updated) {
        found = true;
        EXPECT_DOUBLE_EQ(hit.second, 1.0);
      }
    }
    EXPECT_TRUE(found) << "updated set missing from its own query";

    // Updating a deleted id is a typed NotFound.
    Status dead_update = client.Update(victim, victim_query);
    ASSERT_FALSE(dead_update.ok());
    EXPECT_EQ(dead_update.code(), StatusCode::kNotFound);
  }

  EXPECT_GT(engine_->db().num_deleted(), 0u);
  ASSERT_NE(server_->cache(), nullptr);
  // Every successful mutation bumped the epoch (failed ones must not).
  EXPECT_GE(server_->cache()->stats().invalidations, 8u);
}

// The mutation TSan leg (the served half of the mutation soak):
// concurrent query clients against one mutator running inserts, deletes,
// and updates on disjoint deterministic id ranges, then a quiescent
// differential against the engine.
TEST_F(ServeE2ETest, ConcurrentClientsAndMutations) {
  StartServer();
  uint16_t port = server_->port();
  std::vector<SetRecord> queries = SampleQueries(engine_->db(), 8);

  constexpr int kClients = 3;
  constexpr int kIters = 30;
  constexpr int kMutations = 36;
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client = MustConnect(port);
      for (int i = 0; i < kIters; ++i) {
        const SetRecord& query = queries[(c + i) % queries.size()];
        if (i % 2 == 0) {
          if (!client.Knn(query.view(), 5).ok()) failures.fetch_add(1);
        } else {
          if (!client.Range(query.view(), 0.6).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  std::thread mutator([&] {
    Client client = MustConnect(port);
    for (int i = 0; i < kMutations; ++i) {
      Status st = Status::OK();
      switch (i % 3) {
        case 0: {
          auto id = client.Insert(queries[i % queries.size()]);
          st = id.ok() ? Status::OK() : id.status();
          break;
        }
        case 1:
          // Distinct ids per iteration: every delete targets a live set.
          st = client.Delete(static_cast<SetId>(3 * (i / 3)));
          break;
        default:
          st = client.Update(static_cast<SetId>(100 + 3 * (i / 3)),
                             queries[i % queries.size()]);
      }
      if (!st.ok()) failures.fetch_add(1);
    }
  });
  for (auto& thread : clients) thread.join();
  mutator.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(engine_->db().num_deleted(), uint64_t{kMutations} / 3);

  // Quiescent differential: served answers equal fresh computations over
  // the mutated database.
  Client client = MustConnect(port);
  for (const SetRecord& query : queries) {
    auto hits = client.Knn(query.view(), 5);
    ASSERT_TRUE(hits.ok());
    ExpectExactHits(engine_->Knn(query.view(), 5).hits, hits.value(),
                    "quiescent");
  }
}

TEST_F(ServeE2ETest, DeadlineExceededInsteadOfExecution) {
  ServerOptions options;
  options.executors = 1;
  // Hold every request past any 1 ms budget before its deadline check.
  options.before_execute = [](const Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  StartServer(options);
  Client client = MustConnect(server_->port());
  SetRecord query(engine_->db().set(0));
  auto hits = client.Knn(query.view(), 5, /*deadline_ms=*/1);
  ASSERT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kDeadlineExceeded);
  // An unbounded request on the same connection still succeeds.
  auto unbounded = client.Knn(query.view(), 5, /*deadline_ms=*/0);
  EXPECT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  EXPECT_GE(server_->counters().deadline_exceeded, 1u);
  // Batches re-check the budget mid-run.
  auto batch = client.KnnBatch(SampleQueries(engine_->db(), 4), 5,
                               /*deadline_ms=*/1);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServeE2ETest, AdmissionControlFastRejectsWhenFull) {
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  std::atomic<int> held{0};

  ServerOptions options;
  options.executors = 1;
  options.max_pending = 1;
  options.before_execute = [&](const Request& request) {
    if (request.type != MsgType::kKnn) return;
    held.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gate_open; });
  };
  StartServer(options);

  SetRecord query(engine_->db().set(0));
  // Occupy the single executor.
  std::thread first([&] {
    Client client = MustConnect(server_->port());
    auto hits = client.Knn(query.view(), 5);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
  });
  while (held.load() == 0) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));

  // With the executor blocked and the queue bounded at 1, exactly one of
  // the next two requests is admitted and one is fast-rejected —
  // whichever order they arrive in.
  Status results[2];
  std::thread second([&] {
    Client client = MustConnect(server_->port());
    auto hits = client.Knn(query.view(), 5);
    results[0] = hits.ok() ? Status::OK() : hits.status();
  });
  std::thread third([&] {
    Client client = MustConnect(server_->port());
    auto hits = client.Knn(query.view(), 5);
    results[1] = hits.ok() ? Status::OK() : hits.status();
  });
  // The rejected one returns without the gate opening: admission control
  // costs no engine work and no executor.
  std::thread release([&] {
    while (server_->counters().overloaded == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
    cv.notify_all();
  });
  first.join();
  second.join();
  third.join();
  release.join();

  int ok = 0, overloaded = 0;
  for (const Status& st : results) {
    if (st.ok()) ++ok;
    if (st.code() == StatusCode::kOverloaded) ++overloaded;
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(overloaded, 1);
  EXPECT_EQ(server_->counters().overloaded, 1u);
}

TEST_F(ServeE2ETest, MalformedFramingGetsErrorThenClose) {
  StartServer();
  {
    // Oversized length prefix: typed error reply, then the server closes
    // (a corrupt length cannot be resynchronized).
    RawConn conn(server_->port());
    uint32_t huge = kMaxFrameBytes + 1;
    conn.Send(&huge, sizeof(huge));
    auto response = conn.RecvResponse(MsgType::kPing);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, WireStatus::kInvalidArgument);
    EXPECT_TRUE(conn.ServerClosed());
  }
  {
    // Zero length prefix: same fate.
    RawConn conn(server_->port());
    uint32_t zero = 0;
    conn.Send(&zero, sizeof(zero));
    auto response = conn.RecvResponse(MsgType::kPing);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, WireStatus::kInvalidArgument);
    EXPECT_TRUE(conn.ServerClosed());
  }
  EXPECT_GE(server_->counters().protocol_errors, 2u);
  // The server survived both; a fresh connection works.
  Client client = MustConnect(server_->port());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServeE2ETest, DecodeErrorRepliesTypedAndKeepsConnection) {
  StartServer();
  RawConn conn(server_->port());
  // A well-framed payload whose body is garbage: u32 seq, unknown type
  // byte 99, then padding.
  persist::ByteWriter bad;
  bad.WriteU32(9);  // length prefix
  bad.WriteU32(123);
  bad.WriteU8(99);
  bad.WriteU32(0);
  conn.Send(bad);
  auto error = conn.RecvResponse(MsgType::kPing);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error.value().status, WireStatus::kInvalidArgument);
  // The framing is intact, so the connection survives: a valid request
  // on the same socket succeeds.
  persist::ByteWriter ping;
  EncodeRequest(PingRequest(7), &ping);
  conn.Send(ping);
  auto pong = conn.RecvResponse(MsgType::kPing);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.value().status, WireStatus::kOk);
  EXPECT_EQ(pong.value().seq, 7u);
}

TEST_F(ServeE2ETest, AbruptDisconnectMidFrameIsHarmless) {
  StartServer();
  {
    RawConn conn(server_->port());
    uint8_t partial[2] = {0xff, 0x00};  // half a length prefix
    conn.Send(partial, sizeof(partial));
  }  // destructor closes mid-frame
  {
    // A declared payload that never arrives, then disconnect.
    RawConn conn(server_->port());
    uint32_t len = 100;
    conn.Send(&len, sizeof(len));
  }
  Client client = MustConnect(server_->port());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServeE2ETest, PipelinedRequestsMatchBySeq) {
  StartServer();
  RawConn conn(server_->port());
  // Two requests in one write; replies may complete in any order on the
  // executor pool, the seq echo pairs them up.
  persist::ByteWriter frames;
  EncodeRequest(PingRequest(100), &frames);
  EncodeRequest(PingRequest(101), &frames);
  conn.Send(frames);
  auto a = conn.RecvResponse(MsgType::kPing);
  auto b = conn.RecvResponse(MsgType::kPing);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().seq + b.value().seq, 201u);
  EXPECT_NE(a.value().seq, b.value().seq);
}

TEST_F(ServeE2ETest, KnnKAboveCapRejectedTyped) {
  StartServer();
  Client client = MustConnect(server_->port());
  SetRecord query(engine_->db().set(0));
  auto hits = client.Knn(query.view(), static_cast<size_t>(kMaxKnnK) + 1);
  ASSERT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kInvalidArgument);
  // A body rejection, not a framing one: the connection survives.
  EXPECT_TRUE(client.Ping().ok());
}

// Burst + shutdown(SHUT_WR) is a legal client pattern: every request
// sent before the FIN must still be answered, the replies flushed, and
// only then the connection closed.
TEST_F(ServeE2ETest, PeerFinAfterBurstStillGetsReplies) {
  StartServer();
  RawConn conn(server_->port());
  constexpr uint32_t kBurst = 8;
  persist::ByteWriter frames;
  for (uint32_t i = 0; i < kBurst; ++i) {
    EncodeRequest(PingRequest(100 + i), &frames);
  }
  conn.Send(frames);
  conn.ShutdownWrite();
  std::vector<bool> seen(kBurst, false);
  for (uint32_t i = 0; i < kBurst; ++i) {
    auto response = conn.RecvResponse(MsgType::kPing);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, WireStatus::kOk);
    uint32_t seq = response.value().seq;
    ASSERT_GE(seq, 100u);
    ASSERT_LT(seq, 100u + kBurst);
    EXPECT_FALSE(seen[seq - 100]);
    seen[seq - 100] = true;
  }
  EXPECT_TRUE(conn.ServerClosed());
}

// A client that pipelines thousands of requests while reading slowly
// must not grow the server's per-connection buffers without bound: the
// tiny outbuf cap pauses reads under backlog, flushing resumes them, and
// every single request is still answered (liveness under backpressure).
TEST_F(ServeE2ETest, OutputBufferCapBackpressureAnswersEverything) {
  ServerOptions options;
  options.max_conn_outbuf_bytes = 16 * 1024;
  options.max_pending = 1u << 16;  // admission never rejects this test
  StartServer(options);
  RawConn conn(server_->port(), /*rcvbuf=*/4096);
  constexpr uint32_t kCount = 40000;
  persist::ByteWriter frames;
  for (uint32_t i = 0; i < kCount; ++i) EncodeRequest(PingRequest(i), &frames);
  // The sender may block mid-stream while the server applies
  // backpressure; the main thread reads concurrently so it drains.
  std::thread sender([&] { conn.SendLoop(frames); });
  std::vector<bool> seen(kCount, false);
  uint32_t ok = 0;
  for (uint32_t i = 0; i < kCount; ++i) {
    auto response = conn.RecvResponse(MsgType::kPing);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().status, WireStatus::kOk);
    ASSERT_LT(response.value().seq, kCount);
    ASSERT_FALSE(seen[response.value().seq]);
    seen[response.value().seq] = true;
    ++ok;
  }
  sender.join();
  EXPECT_EQ(ok, kCount);
}

TEST_F(ServeE2ETest, GracefulShutdownDrainsInFlightRequests) {
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  std::atomic<int> held{0};

  ServerOptions options;
  options.executors = 1;
  options.before_execute = [&](const Request& request) {
    if (request.type != MsgType::kKnn) return;
    held.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gate_open; });
  };
  StartServer(options);
  uint16_t port = server_->port();

  // An in-flight request, held inside the executor.
  SetRecord query(engine_->db().set(0));
  Status in_flight = Status::Internal("no reply");
  std::vector<Hit> in_flight_hits;
  std::thread requester([&] {
    Client client = MustConnect(port);
    auto hits = client.Knn(query.view(), 5);
    in_flight = hits.ok() ? Status::OK() : hits.status();
    if (hits.ok()) in_flight_hits = std::move(hits).ValueOrDie();
  });
  while (held.load() == 0) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));

  // Shutdown must block until the drained request is answered.
  std::atomic<bool> shutdown_returned{false};
  std::thread shutdown([&] {
    server_->Shutdown();
    shutdown_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(shutdown_returned.load());  // still draining
  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
    cv.notify_all();
  }
  shutdown.join();
  requester.join();

  // The in-flight request was answered, correctly, through the drain.
  ASSERT_TRUE(in_flight.ok()) << in_flight.ToString();
  ExpectExactHits(engine_->Knn(query.view(), 5).hits, in_flight_hits,
                  "drained");
  // And the server is actually gone: new connections fail outright.
  auto late = Client::Connect("127.0.0.1", port, 1000);
  if (late.ok()) {
    EXPECT_FALSE(late.value().Ping().ok());
  }
  // Idempotent.
  server_->Shutdown();
}

// The TSan leg: concurrent query clients and an inserter on one server,
// cache enabled, then a final differential against the engine.
TEST_F(ServeE2ETest, ConcurrentClientsAndInserts) {
  StartServer();
  uint16_t port = server_->port();
  std::vector<SetRecord> queries = SampleQueries(engine_->db(), 8);

  constexpr int kClients = 4;
  constexpr int kIters = 40;
  constexpr int kInserts = 12;
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client = MustConnect(port);
      for (int i = 0; i < kIters; ++i) {
        const SetRecord& query = queries[(c + i) % queries.size()];
        if (i % 2 == 0) {
          if (!client.Knn(query.view(), 5).ok()) failures.fetch_add(1);
        } else {
          if (!client.Range(query.view(), 0.6).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  std::thread inserter([&] {
    Client client = MustConnect(port);
    for (int i = 0; i < kInserts; ++i) {
      if (!client.Insert(queries[i % queries.size()]).ok()) {
        failures.fetch_add(1);
      }
    }
  });
  for (auto& thread : clients) thread.join();
  inserter.join();
  EXPECT_EQ(failures.load(), 0u);

  // Quiescent differential: with all inserts applied, served answers
  // again equal fresh engine computations.
  Client client = MustConnect(port);
  for (const SetRecord& query : queries) {
    auto hits = client.Knn(query.view(), 5);
    ASSERT_TRUE(hits.ok());
    ExpectExactHits(engine_->Knn(query.view(), 5).hits, hits.value(),
                    "quiescent");
  }
  Server::Counters counters = server_->counters();
  EXPECT_EQ(counters.requests_ok,
            uint64_t{kClients} * kIters + kInserts + queries.size());
}

// Executor coalescing (ServerOptions::batch_window): a pipelined burst of
// compatible and INcompatible requests, executed by one deliberately slow
// executor so the pending queue actually fills and groups form. Every
// reply must be byte-exact against a direct engine call and match its
// request by seq — coalescing must be invisible in the answers.
TEST_F(ServeE2ETest, CoalescedServingStaysExact) {
  ServerOptions options;
  options.batch_window = 8;
  options.executors = 1;
  options.cache_bytes = 0;  // every request reaches the engine batch path
  options.before_execute = [](const Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  StartServer(options);
  Client client = MustConnect(server_->port());
  std::vector<SetRecord> queries = SampleQueries(engine_->db(), 10);

  std::vector<Request> burst;
  for (size_t i = 0; i < 40; ++i) {
    Request request;
    request.queries.push_back(queries[i % queries.size()]);
    switch (i % 4) {
      case 0:
        request.type = MsgType::kKnn;
        request.k = 5;
        break;
      case 1:
        request.type = MsgType::kKnn;
        request.k = 9;  // incompatible k: must never share a group with k=5
        break;
      case 2:
        request.type = MsgType::kRange;
        request.delta = 0.5;
        break;
      default:
        request.type = MsgType::kRange;
        request.delta = 0.7;
        break;
    }
    burst.push_back(std::move(request));
  }
  std::vector<Response> replies;
  Status st = client.CallPipelined(burst, &replies);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(replies.size(), burst.size());
  for (size_t i = 0; i < burst.size(); ++i) {
    ASSERT_EQ(replies[i].status, WireStatus::kOk) << replies[i].message;
    SetView query = burst[i].queries[0].view();
    std::vector<Hit> direct = burst[i].type == MsgType::kKnn
                                  ? engine_->Knn(query, burst[i].k).hits
                                  : engine_->Range(query, burst[i].delta).hits;
    ExpectExactHits(direct, replies[i].results[0],
                    "coalesced i=" + std::to_string(i));
  }
}

// One query set answered three ways — lone kKnn requests, members of one
// coalesced group, and rows of a kKnnBatch request — runs through the same
// cache -> engine -> cache step each way: the replies are byte-identical,
// cold and warm, and the cache counts the same hits and misses. Each way
// gets a fresh server (and so a cold cache) over an identically built
// engine.
TEST_F(ServeE2ETest, LoneCoalescedAndBatchedQueriesAnswerAlike) {
  constexpr size_t kK = 7;
  std::vector<SetRecord> queries;
  std::vector<std::vector<Hit>> direct;
  std::vector<std::vector<std::vector<Hit>>> answers(3);
  std::vector<ResultCache::Stats> stats(3);
  for (int way = 0; way < 3; ++way) {
    ServerOptions options;
    options.batch_window = 8;
    options.executors = 1;
    // The coalesced way leads with a Ping that holds the only executor
    // until the whole kNN burst is queued behind it, so the burst pops
    // as one group.
    options.before_execute = [](const Request& request) {
      if (request.type == MsgType::kPing) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    };
    StartServer(options);
    if (queries.empty()) {
      queries = SampleQueries(engine_->db(), 4);
      for (const SetRecord& q : queries) {
        direct.push_back(engine_->Knn(q.view(), kK).hits);
      }
    }
    Client client = MustConnect(server_->port());
    for (int round = 0; round < 2; ++round) {  // cold cache, then warm
      std::string label =
          "way=" + std::to_string(way) + " round=" + std::to_string(round);
      std::vector<std::vector<Hit>> got;
      if (way == 0) {
        for (const SetRecord& q : queries) {
          auto hits = client.Knn(q.view(), kK);
          ASSERT_TRUE(hits.ok()) << label << ": " << hits.status().ToString();
          got.push_back(hits.value());
        }
      } else if (way == 1) {
        std::vector<Request> burst(1);
        burst[0].type = MsgType::kPing;
        for (const SetRecord& q : queries) {
          Request request;
          request.type = MsgType::kKnn;
          request.k = kK;
          request.queries.push_back(q);
          burst.push_back(std::move(request));
        }
        std::vector<Response> replies;
        Status st = client.CallPipelined(burst, &replies);
        ASSERT_TRUE(st.ok()) << label << ": " << st.ToString();
        for (size_t i = 1; i < replies.size(); ++i) {
          ASSERT_EQ(replies[i].status, WireStatus::kOk) << label;
          got.push_back(replies[i].results[0]);
        }
      } else {
        auto hits = client.KnnBatch(queries, kK);
        ASSERT_TRUE(hits.ok()) << label << ": " << hits.status().ToString();
        got = hits.value();
      }
      ASSERT_EQ(got.size(), queries.size()) << label;
      for (size_t q = 0; q < queries.size(); ++q) {
        ExpectExactHits(direct[q], got[q], label + " q=" + std::to_string(q));
      }
      if (round == 0) answers[way] = std::move(got);
    }
    ASSERT_NE(server_->cache(), nullptr);
    stats[way] = server_->cache()->stats();
  }
  for (int way = 0; way < 3; ++way) {
    for (size_t q = 0; q < queries.size(); ++q) {
      ExpectExactHits(answers[0][q], answers[way][q],
                      "way=" + std::to_string(way) + " q=" + std::to_string(q));
    }
    EXPECT_EQ(stats[way].misses, queries.size()) << "way=" << way;
    EXPECT_EQ(stats[way].hits, queries.size()) << "way=" << way;
    EXPECT_EQ(stats[way].insertions, queries.size()) << "way=" << way;
  }
}

// Coalescing under concurrent mutations — the TSan leg for the batched
// serving path: pipelining clients keep the queue populated while a
// mutator inserts/deletes/updates, so engine batch calls, cache fills,
// epoch bumps, and coalesced grouping all race. Replies must stay
// well-formed throughout and exact once quiescent.
TEST_F(ServeE2ETest, CoalescedServingWithConcurrentMutations) {
  ServerOptions options;
  options.batch_window = 6;
  options.executors = 2;
  StartServer(options);
  uint16_t port = server_->port();
  std::vector<SetRecord> queries = SampleQueries(engine_->db(), 8);

  constexpr int kClients = 3;
  constexpr int kRounds = 12;
  constexpr size_t kPipeline = 10;
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client = MustConnect(port);
      std::vector<Request> burst;
      std::vector<Response> replies;
      for (int round = 0; round < kRounds; ++round) {
        burst.clear();
        for (size_t j = 0; j < kPipeline; ++j) {
          Request request;
          request.type = (j % 2 == 0) ? MsgType::kKnn : MsgType::kRange;
          request.k = 5;
          request.delta = 0.6;
          request.queries.push_back(queries[(c + round + j) % queries.size()]);
          burst.push_back(std::move(request));
        }
        if (!client.CallPipelined(burst, &replies).ok()) {
          failures.fetch_add(kPipeline);
          continue;
        }
        for (const Response& reply : replies) {
          if (reply.status != WireStatus::kOk) failures.fetch_add(1);
        }
      }
    });
  }
  std::thread mutator([&] {
    Client client = MustConnect(port);
    for (int i = 0; i < 30; ++i) {
      Status st = Status::OK();
      switch (i % 3) {
        case 0: {
          auto id = client.Insert(queries[i % queries.size()]);
          st = id.ok() ? Status::OK() : id.status();
          break;
        }
        case 1:
          st = client.Delete(static_cast<SetId>(5 * (i / 3)));
          break;
        default:
          st = client.Update(static_cast<SetId>(150 + 5 * (i / 3)),
                             queries[i % queries.size()]);
      }
      if (!st.ok()) failures.fetch_add(1);
    }
  });
  for (auto& thread : clients) thread.join();
  mutator.join();
  EXPECT_EQ(failures.load(), 0u);

  Client client = MustConnect(port);
  for (const SetRecord& query : queries) {
    auto hits = client.Knn(query.view(), 5);
    ASSERT_TRUE(hits.ok());
    ExpectExactHits(engine_->Knn(query.view(), 5).hits, hits.value(),
                    "quiescent coalesced");
  }
}

// The kMaintainNow admin verb: runs a synchronous maintenance cycle on
// the serving engine, returns its ops counters, and preserves every
// answer — including ones already sitting in the result cache (no epoch
// bump: maintenance is exactness-preserving).
TEST_F(ServeE2ETest, MaintainNowOverWire) {
  StartServer();
  Client client = MustConnect(server_->port());
  std::vector<SetRecord> queries = SampleQueries(engine_->db(), 6);

  // Tombstone some sets so maintenance has stale bits to pay down.
  for (SetId id = 0; id < 30; id += 2) {
    ASSERT_TRUE(client.Delete(id).ok());
  }
  // Warm the cache and pin the expected answers.
  std::vector<std::vector<Hit>> before;
  for (const SetRecord& query : queries) {
    auto hits = client.Knn(query.view(), 6);
    ASSERT_TRUE(hits.ok());
    before.push_back(std::move(hits).ValueOrDie());
  }
  ASSERT_NE(server_->cache(), nullptr);
  uint64_t epoch_before = server_->cache()->epoch();

  auto report = client.MaintainNow();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().bits_dropped, 0u);  // the tombstones' dirt

  // No invalidation, and the (cached) answers are still the exact ones.
  EXPECT_EQ(server_->cache()->epoch(), epoch_before);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto hits = client.Knn(queries[i].view(), 6);
    ASSERT_TRUE(hits.ok());
    ExpectExactHits(before[i], hits.value(),
                    "post-maintenance q=" + std::to_string(i));
    ExpectExactHits(engine_->Knn(queries[i].view(), 6).hits, hits.value(),
                    "post-maintenance fresh q=" + std::to_string(i));
  }
}

// Backends without self-healing maintenance answer the verb with a typed
// NotSupported, not a protocol error.
TEST_F(ServeE2ETest, MaintainNowNotSupportedTyped) {
  auto engine = api::EngineBuilder::Build(MakeDb(12), "brute_force",
                                          FastOptions());
  ASSERT_TRUE(engine.ok());
  std::shared_ptr<SearchEngine> shared(std::move(engine).ValueOrDie());
  ServerOptions options;
  options.port = 0;
  Server server(shared, options);
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server.port());
  auto report = client.MaintainNow();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotSupported);
  // The connection survives a typed rejection.
  EXPECT_TRUE(client.Ping().ok());
}

}  // namespace
}  // namespace serve
}  // namespace les3

// Server — the les3_serve network front-end: an edge-triggered epoll event
// loop serving the wire protocol of serve/wire.h over TCP, on top of any
// api::SearchEngine (ShardedEngine in production).
//
// Architecture (docs/serving.md):
//
//   acceptor thread ── accept, round-robin ──► io workers (1 epoll each)
//   io worker: reads frames, decodes, ADMISSION CONTROL, writes replies
//   bounded pending queue ──► executor threads: DEADLINE CHECK, engine
//   query (through the result cache; a lone kKnn/kRange is a coalesced
//   group of one), reply appended to the connection and the owning io
//   worker woken via eventfd
//
//  - Connection-per-worker: every connection is owned by exactly one io
//    worker; only that worker reads or writes its socket, so no two
//    threads ever race on one fd. Executors hand replies back through the
//    connection's locked output buffer + an eventfd wake.
//  - Admission control: decoded requests enter a bounded pending queue;
//    when it is full (or the server is draining) the io worker replies
//    kOverloaded immediately — a fast reject that costs no engine work.
//  - Flow control: a connection whose unsent-reply backlog reaches
//    max_conn_outbuf_bytes is not read again until the backlog flushes,
//    so a client that pipelines without reading cannot exhaust memory.
//    Replies too large for one frame become typed kOutOfRange errors
//    (ClampOversizedResponse), never an encoder abort. On peer FIN the
//    buffered requests are still answered and the replies flushed before
//    the close (burst + shutdown(SHUT_WR) is a legal client pattern).
//  - Deadline budgets: a request's deadline_ms counts from the moment its
//    frame was decoded. An executor that pops an already-expired request
//    replies kDeadlineExceeded instead of running the query, so a backlog
//    of doomed requests cannot occupy the workers. Batch requests
//    re-check the budget between queries.
//  - Result cache: Knn/Range answers are served from a sharded LRU
//    (serve/result_cache.h) whose global epoch is bumped after every
//    completed mutation (Insert/Delete/Update) — exactness is preserved,
//    never approximated.
//  - Engines without the concurrent-insert contract
//    (SearchEngine::SupportsConcurrentInsert() == false) are guarded by a
//    reader-writer lock here: queries share, mutations exclude.
//  - Graceful shutdown: Shutdown() (wired to SIGINT/SIGTERM by the
//    binary) stops accepting, fast-rejects requests decoded from then on,
//    drains everything already admitted, flushes every reply, then joins
//    all threads. Idempotent; the destructor calls it.

#ifndef LES3_SERVE_SERVER_H_
#define LES3_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/search_engine.h"
#include "serve/result_cache.h"
#include "serve/wire.h"
#include "util/status.h"

namespace les3 {
namespace serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; Server::port() reports it

  /// Epoll loops; connections are assigned round-robin at accept.
  size_t io_workers = 2;

  /// Engine-executing threads; 0 = hardware concurrency.
  size_t executors = 0;

  /// Admission-control bound on the pending-request queue.
  size_t max_pending = 256;

  /// Per-connection cap on buffered-but-unsent reply bytes. A client that
  /// pipelines requests while never reading replies stops being read once
  /// its backlog reaches this (backpressure instead of unbounded memory);
  /// reading resumes when the backlog flushes. 0 = unlimited.
  size_t max_conn_outbuf_bytes = 64u << 20;

  /// Result-cache budget; 0 disables the cache entirely.
  size_t cache_bytes = 64u << 20;
  size_t cache_shards = 16;

  /// Executor coalescing window. An executor that pops a single-query
  /// kKnn/kRange request may drain up to batch_window-1 more COMPATIBLE
  /// pending requests (same type; equal k / bit-identical delta) from the
  /// queue and answer the whole group through ONE engine batch call — the
  /// batched column probe amortizes the TGM walk across the group. A lone
  /// request is a group of one on the same path. Replies stay per-request
  /// (each keeps its seq, deadline, cache entry, and counters) and do not
  /// depend on the grouping. 1 disables coalescing.
  size_t batch_window = 1;

  /// Test instrumentation. `before_execute` runs in the executor after a
  /// request is popped and BEFORE its deadline check — the deadline and
  /// overload tests use it to hold executors deterministically. Never set
  /// in production.
  std::function<void(const Request&)> before_execute;
};

class Server {
 public:
  /// Monotonic counters, readable while serving.
  struct Counters {
    uint64_t connections_accepted = 0;
    uint64_t requests_ok = 0;
    uint64_t requests_error = 0;      // typed non-OK replies (engine/codec)
    uint64_t overloaded = 0;          // admission fast-rejects
    uint64_t deadline_exceeded = 0;
    uint64_t protocol_errors = 0;     // unrecoverable framing violations
  };

  /// The engine must outlive the server (shared_ptr enforces it). Whether
  /// Insert handling locks out queries follows
  /// engine->SupportsConcurrentInsert().
  Server(std::shared_ptr<api::SearchEngine> engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor + io workers + executors.
  /// IOError on bind/listen failure. Call at most once.
  Status Start();

  /// The bound port (after Start); useful with options.port == 0.
  uint16_t port() const { return port_; }

  /// The options after defaulting (e.g. executors == 0 resolved to the
  /// hardware concurrency in the constructor).
  const ServerOptions& options() const { return options_; }

  /// Graceful shutdown (see file comment). Blocks until every admitted
  /// request is answered and all threads are joined. Idempotent and safe
  /// to call from any thread (the binary calls it from its signal-wait
  /// thread).
  void Shutdown();

  /// Null when options.cache_bytes == 0.
  const ResultCache* cache() const { return cache_.get(); }

  Counters counters() const;

 private:
  struct Connection;
  struct IoWorker;

  /// One admitted request awaiting an executor.
  struct Work {
    std::shared_ptr<Connection> conn;
    Request request;
    std::chrono::steady_clock::time_point arrival;
  };

  void AcceptorLoop();
  void IoLoop(IoWorker* worker);
  void ExecutorLoop();

  void RegisterPending(IoWorker* worker);
  void ReadConnection(IoWorker* worker, const std::shared_ptr<Connection>& conn);
  void ProcessInput(IoWorker* worker, const std::shared_ptr<Connection>& conn);
  void FlushConnection(IoWorker* worker, const std::shared_ptr<Connection>& conn);
  void CloseConnection(IoWorker* worker, const std::shared_ptr<Connection>& conn);

  /// Appends an encoded reply to the connection and wakes its owner.
  void SubmitReply(const std::shared_ptr<Connection>& conn,
                   const persist::ByteWriter& frame);
  void SubmitError(const std::shared_ptr<Connection>& conn, uint32_t seq,
                   WireStatus status, const std::string& message);

  /// False when the queue is full or the server is draining.
  bool TryEnqueue(Work work);

  /// Executes every request type but kKnn/kRange.
  void Execute(const Work& work);
  /// Answers a group of compatible kKnn/kRange requests — coalesced (see
  /// ServerOptions::batch_window), or a lone request as a group of one —
  /// through one AnswerThroughCache call. Each member's deadline,
  /// counters, and reply are handled individually.
  void ExecuteBatch(std::vector<Work>* group);
  Response HandleRequest(const Request& request,
                         std::chrono::steady_clock::time_point arrival);
  /// Answers a kKnnBatch/kRangeBatch body through AnswerThroughCache.
  /// Deadline expiry before the engine call turns the whole response into
  /// kDeadlineExceeded.
  void HandleWireBatch(const Request& request,
                       std::chrono::steady_clock::time_point arrival,
                       Response* response);
  /// \brief The one cache -> engine -> cache step behind every kNN/range
  /// reply. All queries are kNN with `k` (is_knn) or range with `delta`.
  /// Cache hits peel off per query, the misses run as ONE engine
  /// KnnBatch/RangeBatch, and each miss's answer is cached under the
  /// epoch read before the engine ran. `results` is resized to
  /// queries.size(). `before_engine` (optional) runs between the cache
  /// phase and the engine call, only when some query missed; if it
  /// returns false the misses stay unanswered and this returns false.
  bool AnswerThroughCache(bool is_knn, size_t k, double delta,
                          const std::vector<const SetRecord*>& queries,
                          std::vector<std::vector<Hit>>* results,
                          const std::function<bool()>& before_engine = {});

  /// Runs `fn` against the engine as a reader (queries) or a writer
  /// (Insert/Delete/Update/MaintainNow): directly when the engine has the
  /// concurrent-insert contract, else under engine_mu_ shared / exclusive.
  template <typename Fn>
  auto ReadEngine(const Fn& fn) -> decltype(fn());
  template <typename Fn>
  auto WriteEngine(const Fn& fn) -> decltype(fn());

  std::shared_ptr<api::SearchEngine> engine_;
  ServerOptions options_;
  std::unique_ptr<ResultCache> cache_;
  bool engine_concurrent_insert_ = false;
  /// Guards the engine when it lacks the concurrent-insert contract:
  /// queries take shared, Insert takes exclusive. Unused otherwise.
  mutable std::shared_mutex engine_mu_;

  int listen_fd_ = -1;
  int acceptor_wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<IoWorker>> workers_;
  std::vector<std::thread> executors_;
  std::atomic<size_t> next_worker_{0};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;   // executors wait here
  std::condition_variable drain_cv_;   // Shutdown waits here
  std::deque<Work> queue_;
  size_t active_requests_ = 0;  // popped but not yet replied (under queue_mu_)
  bool executors_stop_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<bool> io_stop_{false};
  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool shutdown_done_ = false;

  mutable std::mutex counters_mu_;
  Counters counters_;
};

}  // namespace serve
}  // namespace les3

#endif  // LES3_SERVE_SERVER_H_

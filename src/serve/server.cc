#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/logging.h"

namespace les3 {
namespace serve {

namespace {

constexpr size_t kReadChunk = 16 * 1024;
constexpr int kMaxEpollEvents = 64;

// Decode accumulated input mid-read-burst once this many bytes pile up,
// so `in` stays bounded (~one max frame) and the output-backlog check
// sees the replies a long burst generates.
constexpr size_t kProcessBurstBytes = 256 * 1024;

// Best-effort time budget for flushing replies still buffered when the io
// workers stop (Shutdown has already drained every admitted request by
// then, so this only covers a slow reader's last bytes).
constexpr int kFinalFlushMs = 2000;

void DrainEventFd(int fd) {
  uint64_t value;
  while (read(fd, &value, sizeof(value)) > 0) {
  }
}

void SignalEventFd(int fd) {
  uint64_t one = 1;
  // The counter saturating (EAGAIN) still leaves the fd readable, which is
  // all a wake needs.
  [[maybe_unused]] ssize_t n = write(fd, &one, sizeof(one));
}

uint32_t PeekSeq(const uint8_t* payload, size_t size) {
  if (size < 4) return 0;
  return static_cast<uint32_t>(payload[0]) |
         (static_cast<uint32_t>(payload[1]) << 8) |
         (static_cast<uint32_t>(payload[2]) << 16) |
         (static_cast<uint32_t>(payload[3]) << 24);
}

}  // namespace

/// One accepted socket. Owned by exactly one io worker: only that worker
/// reads the socket, writes the socket, or touches `in`. Executors reach
/// the connection through the locked output buffer only.
struct Server::Connection {
  int fd = -1;
  size_t worker_index = 0;

  std::vector<uint8_t> in;  // unparsed request bytes (worker thread only)

  std::mutex out_mu;
  std::vector<uint8_t> out;  // encoded replies not yet written
  size_t out_pos = 0;
  bool close_after_flush = false;  // unrecoverable framing error

  std::atomic<bool> closed{false};
  /// Requests admitted for this connection and not yet replied; the
  /// close-after-flush path waits for it to reach zero so pipelined
  /// predecessors still get their replies.
  std::atomic<uint32_t> inflight{0};

  bool epollout_armed = false;  // worker thread only
  /// Reading stopped because the reply backlog hit the cap; cleared (and
  /// the socket re-read) by FlushConnection when the backlog drains.
  bool read_paused = false;  // worker thread only
};

struct Server::IoWorker {
  size_t index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;

  std::mutex adds_mu;
  std::vector<std::shared_ptr<Connection>> pending_adds;

  std::unordered_map<int, std::shared_ptr<Connection>> conns;
};

Server::Server(std::shared_ptr<api::SearchEngine> engine,
               ServerOptions options)
    : engine_(std::move(engine)), options_(std::move(options)) {
  LES3_CHECK(engine_ != nullptr);
  if (options_.io_workers == 0) options_.io_workers = 1;
  if (options_.executors == 0) {
    options_.executors = std::thread::hardware_concurrency();
    if (options_.executors == 0) options_.executors = 1;
  }
  if (options_.max_pending == 0) options_.max_pending = 1;
  if (options_.cache_bytes > 0) {
    ResultCache::Options cache_options;
    cache_options.capacity_bytes = options_.cache_bytes;
    cache_options.num_shards = options_.cache_shards;
    cache_ = std::make_unique<ResultCache>(cache_options);
  }
  engine_concurrent_insert_ = engine_->SupportsConcurrentInsert();
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    LES3_CHECK(!started_);
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int enable = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::IOError("bind " + options_.host + ":" +
                                std::to_string(options_.port) + ": " +
                                std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (listen(listen_fd_, 128) < 0) {
    Status st = Status::IOError(std::string("listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  // port_ is how port-0 callers learn the kernel-assigned port; reporting
  // garbage from an uninitialized sockaddr would send them connecting to
  // the wrong endpoint, so a failed lookup fails Start.
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) <
      0) {
    Status st =
        Status::IOError(std::string("getsockname: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);

  acceptor_wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  LES3_CHECK_GE(acceptor_wake_fd_, 0);

  workers_.reserve(options_.io_workers);
  for (size_t i = 0; i < options_.io_workers; ++i) {
    auto worker = std::make_unique<IoWorker>();
    worker->index = i;
    worker->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    LES3_CHECK_GE(worker->epoll_fd, 0);
    worker->wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    LES3_CHECK_GE(worker->wake_fd, 0);
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;  // level-triggered: the loop drains the counter
    ev.data.fd = worker->wake_fd;
    LES3_CHECK_EQ(
        epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev), 0);
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    IoWorker* raw = worker.get();
    raw->thread = std::thread([this, raw] { IoLoop(raw); });
  }
  for (size_t i = 0; i < options_.executors; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptorLoop(); });

  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  started_ = true;
  return Status::OK();
}

void Server::Shutdown() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!started_ || shutdown_done_) return;

  // 1. Refuse new connections and fast-reject requests decoded from now
  //    on; everything already admitted will be answered.
  draining_.store(true, std::memory_order_release);
  SignalEventFd(acceptor_wake_fd_);
  acceptor_.join();
  close(listen_fd_);
  listen_fd_ = -1;
  close(acceptor_wake_fd_);
  acceptor_wake_fd_ = -1;

  // 2. Drain: wait for the pending queue to empty and every popped
  //    request to finish, then stop the executors.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drain_cv_.wait(lock, [this] {
      return queue_.empty() && active_requests_ == 0;
    });
    executors_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& t : executors_) t.join();
  executors_.clear();

  // 3. Stop the io workers; each flushes buffered replies best-effort and
  //    closes its connections on the way out.
  io_stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) SignalEventFd(worker->wake_fd);
  for (auto& worker : workers_) {
    worker->thread.join();
    close(worker->wake_fd);
    close(worker->epoll_fd);
  }
  workers_.clear();
  shutdown_done_ = true;
}

Server::Counters Server::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

void Server::AcceptorLoop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {acceptor_wake_fd_, POLLIN, 0};
    int n = poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (draining_.load(std::memory_order_acquire)) return;
    if (!(fds[0].revents & POLLIN)) continue;
    for (;;) {
      int fd = accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        break;  // transient accept failure; retry on the next poll
      }
      int enable = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));

      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      size_t w = next_worker_.fetch_add(1, std::memory_order_relaxed) %
                 workers_.size();
      conn->worker_index = w;
      {
        std::lock_guard<std::mutex> lock(workers_[w]->adds_mu);
        workers_[w]->pending_adds.push_back(std::move(conn));
      }
      SignalEventFd(workers_[w]->wake_fd);
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.connections_accepted;
      }
    }
  }
}

void Server::RegisterPending(IoWorker* worker) {
  std::vector<std::shared_ptr<Connection>> adds;
  {
    std::lock_guard<std::mutex> lock(worker->adds_mu);
    adds.swap(worker->pending_adds);
  }
  for (auto& conn : adds) {
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.fd = conn->fd;
    if (epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      close(conn->fd);
      continue;
    }
    worker->conns.emplace(conn->fd, std::move(conn));
  }
}

void Server::IoLoop(IoWorker* worker) {
  epoll_event events[kMaxEpollEvents];
  for (;;) {
    int n = epoll_wait(worker->epoll_fd, events, kMaxEpollEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool woke = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == worker->wake_fd) {
        DrainEventFd(worker->wake_fd);
        woke = true;
        continue;
      }
      auto it = worker->conns.find(events[i].data.fd);
      if (it == worker->conns.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(worker, conn);
        continue;
      }
      if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
        ReadConnection(worker, conn);
      }
      if (conn->closed.load(std::memory_order_acquire)) continue;
      if (events[i].events & EPOLLOUT) {
        FlushConnection(worker, conn);
      }
    }
    if (woke) {
      RegisterPending(worker);
      // Executor replies land in output buffers; flush whatever has
      // pending bytes (snapshot first — a flush may close + erase).
      std::vector<std::shared_ptr<Connection>> snapshot;
      snapshot.reserve(worker->conns.size());
      for (auto& [fd, conn] : worker->conns) snapshot.push_back(conn);
      for (auto& conn : snapshot) {
        bool pending;
        {
          std::lock_guard<std::mutex> lock(conn->out_mu);
          pending = conn->out_pos < conn->out.size() || conn->close_after_flush;
        }
        if (pending) FlushConnection(worker, conn);
      }
    }
    if (io_stop_.load(std::memory_order_acquire)) break;
  }

  // Final best-effort flush of buffered replies, then close everything.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(kFinalFlushMs);
  for (;;) {
    bool any_pending = false;
    std::vector<std::shared_ptr<Connection>> snapshot;
    for (auto& [fd, conn] : worker->conns) snapshot.push_back(conn);
    for (auto& conn : snapshot) {
      FlushConnection(worker, conn);
      if (conn->closed.load(std::memory_order_acquire)) continue;
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (conn->out_pos < conn->out.size()) any_pending = true;
    }
    if (!any_pending || std::chrono::steady_clock::now() >= deadline) break;
    pollfd idle = {-1, 0, 0};
    poll(&idle, 0, 20);  // brief pause; peers drain their sockets
  }
  std::vector<std::shared_ptr<Connection>> remaining;
  for (auto& [fd, conn] : worker->conns) remaining.push_back(conn);
  for (auto& conn : remaining) CloseConnection(worker, conn);
}

void Server::ReadConnection(IoWorker* worker,
                            const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  uint8_t buf[kReadChunk];
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      // A stream declared unresynchronizable is never read or decoded
      // again: misaligned leftover bytes could decode as valid requests
      // (including mutating Inserts), and newly admitted work would
      // defer the pending close indefinitely.
      if (conn->close_after_flush) {
        conn->in.clear();
        return;
      }
      if (options_.max_conn_outbuf_bytes > 0 &&
          conn->out.size() - conn->out_pos >= options_.max_conn_outbuf_bytes) {
        conn->read_paused = true;
        return;
      }
    }
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.insert(conn->in.end(), buf, buf + n);
      if (conn->in.size() >= kProcessBurstBytes) ProcessInput(worker, conn);
      continue;
    }
    if (n == 0) {
      // Orderly peer FIN: the client is done sending but may still read
      // (burst + shutdown(SHUT_WR) is legal). Answer everything already
      // buffered and close through the flush/inflight gate so no reply
      // is discarded.
      ProcessInput(worker, conn);
      conn->in.clear();  // an incomplete trailing frame can never finish
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        conn->close_after_flush = true;
      }
      FlushConnection(worker, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(worker, conn);
    return;
  }
  ProcessInput(worker, conn);
}

void Server::ProcessInput(IoWorker* worker,
                          const std::shared_ptr<Connection>& conn) {
  (void)worker;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->close_after_flush) {
      conn->in.clear();
      return;
    }
  }
  size_t consumed = 0;
  for (;;) {
    size_t frame_end = 0;
    bool complete = false;
    Status framing = ExtractFrame(conn->in.data() + consumed,
                                  conn->in.size() - consumed, &frame_end,
                                  &complete);
    if (!framing.ok()) {
      // The stream cannot be resynchronized: reply, flush, close. Replies
      // to requests already in flight still go out first (inflight gate).
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.protocol_errors;
      }
      SubmitError(conn, 0, WireStatus::kInvalidArgument, framing.message());
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        conn->close_after_flush = true;
      }
      conn->in.clear();
      return;
    }
    if (!complete) break;
    const uint8_t* payload = conn->in.data() + consumed + 4;
    size_t payload_size = frame_end - 4;
    auto request = DecodeRequest(payload, payload_size);
    if (!request.ok()) {
      // Framing is intact, so the connection survives; the request gets a
      // typed error reply.
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.requests_error;
      }
      SubmitError(conn, PeekSeq(payload, payload_size),
                  WireStatusFromCode(request.status().code()),
                  request.status().message());
    } else {
      uint32_t seq = request.value().seq;
      Work work;
      work.conn = conn;
      work.request = std::move(request).ValueOrDie();
      work.arrival = std::chrono::steady_clock::now();
      conn->inflight.fetch_add(1, std::memory_order_acq_rel);
      if (!TryEnqueue(std::move(work))) {
        conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
        {
          std::lock_guard<std::mutex> lock(counters_mu_);
          ++counters_.overloaded;
        }
        SubmitError(conn, seq, WireStatus::kOverloaded,
                    draining_.load(std::memory_order_acquire)
                        ? "server is shutting down"
                        : "pending-request queue is full");
      }
    }
    consumed += frame_end;
  }
  if (consumed > 0) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<ptrdiff_t>(consumed));
  }
}

void Server::FlushConnection(IoWorker* worker,
                             const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  bool close_now = false;
  bool resume_read = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    while (conn->out_pos < conn->out.size()) {
      ssize_t n = send(conn->fd, conn->out.data() + conn->out_pos,
                       conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->epollout_armed) {
          epoll_event ev;
          std::memset(&ev, 0, sizeof(ev));
          ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
          ev.data.fd = conn->fd;
          epoll_ctl(worker->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
          conn->epollout_armed = true;
        }
        return;
      }
      close_now = true;  // peer gone (EPIPE/ECONNRESET/...)
      break;
    }
    if (!close_now) {
      conn->out.clear();
      conn->out_pos = 0;
      if (conn->epollout_armed) {
        epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
        ev.data.fd = conn->fd;
        epoll_ctl(worker->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
        conn->epollout_armed = false;
      }
      if (conn->close_after_flush &&
          conn->inflight.load(std::memory_order_acquire) == 0) {
        close_now = true;
      } else if (conn->read_paused && !conn->close_after_flush) {
        conn->read_paused = false;
        resume_read = true;
      }
    }
  }
  if (close_now) {
    CloseConnection(worker, conn);
  } else if (resume_read) {
    // The paused socket produced no new epoll edges for bytes already in
    // the kernel buffer; pull them now that the backlog drained.
    ReadConnection(worker, conn);
  }
}

void Server::CloseConnection(IoWorker* worker,
                             const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  epoll_ctl(worker->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  worker->conns.erase(conn->fd);
}

void Server::SubmitReply(const std::shared_ptr<Connection>& conn,
                         const persist::ByteWriter& frame) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->out.insert(conn->out.end(), frame.data().begin(),
                     frame.data().end());
  }
}

void Server::SubmitError(const std::shared_ptr<Connection>& conn, uint32_t seq,
                         WireStatus status, const std::string& message) {
  persist::ByteWriter frame;
  EncodeErrorResponse(seq, status, message, &frame);
  SubmitReply(conn, frame);
  SignalEventFd(workers_[conn->worker_index]->wake_fd);
}

bool Server::TryEnqueue(Work work) {
  if (draining_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (executors_stop_) return false;
  if (queue_.size() >= options_.max_pending) return false;
  queue_.push_back(std::move(work));
  queue_cv_.notify_one();
  return true;
}

template <typename Fn>
auto Server::ReadEngine(const Fn& fn) -> decltype(fn()) {
  if (engine_concurrent_insert_) return fn();
  std::shared_lock<std::shared_mutex> lock(engine_mu_);
  return fn();
}

template <typename Fn>
auto Server::WriteEngine(const Fn& fn) -> decltype(fn()) {
  if (engine_concurrent_insert_) return fn();
  std::unique_lock<std::shared_mutex> lock(engine_mu_);
  return fn();
}

void Server::ExecutorLoop() {
  for (;;) {
    std::vector<Work> group;
    MsgType head_type = MsgType::kPing;  // set from the popped head below
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return executors_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and nothing left
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Coalescing: drain further pending single-query requests that can
      // ride the same engine batch call (same type, equal k / bit-identical
      // delta). Skipping incompatible entries is legal — replies are
      // matched by seq, and the executor pool already completes requests
      // out of order.
      // The head's key is copied: growing `group` moves its elements.
      head_type = group.front().request.type;
      const uint32_t head_k = group.front().request.k;
      const double head_delta = group.front().request.delta;
      if (options_.batch_window > 1 &&
          (head_type == MsgType::kKnn || head_type == MsgType::kRange)) {
        for (auto it = queue_.begin();
             it != queue_.end() && group.size() < options_.batch_window;) {
          const Request& r = it->request;
          bool compatible =
              r.type == head_type &&
              (head_type == MsgType::kKnn
                   ? r.k == head_k
                   : std::memcmp(&r.delta, &head_delta, sizeof(double)) == 0);
          if (compatible) {
            group.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
      active_requests_ += group.size();
    }
    if (head_type == MsgType::kKnn || head_type == MsgType::kRange) {
      ExecuteBatch(&group);  // a lone request is a group of one
    } else {
      Execute(group.front());
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      active_requests_ -= group.size();
      if (queue_.empty() && active_requests_ == 0) drain_cv_.notify_all();
    }
  }
}

void Server::Execute(const Work& work) {
  const Request& request = work.request;
  if (options_.before_execute) options_.before_execute(request);

  persist::ByteWriter frame;
  bool expired =
      request.deadline_ms > 0 &&
      std::chrono::steady_clock::now() - work.arrival >=
          std::chrono::milliseconds(request.deadline_ms);
  if (expired) {
    EncodeErrorResponse(request.seq, WireStatus::kDeadlineExceeded,
                        "deadline of " + std::to_string(request.deadline_ms) +
                            "ms expired before execution",
                        &frame);
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.deadline_exceeded;
  } else {
    Response response = HandleRequest(request, work.arrival);
    response.seq = request.seq;
    // A result too large for one frame becomes a typed kOutOfRange reply
    // here, so the counters below match what actually goes on the wire.
    ClampOversizedResponse(&response, request.type);
    EncodeResponse(response, request.type, &frame);
    std::lock_guard<std::mutex> lock(counters_mu_);
    if (response.status == WireStatus::kOk) {
      ++counters_.requests_ok;
    } else if (response.status == WireStatus::kDeadlineExceeded) {
      ++counters_.deadline_exceeded;
    } else {
      ++counters_.requests_error;
    }
  }
  // Order matters: reply bytes first, then the inflight decrement, then
  // the wake — so the flush that the wake triggers observes both and can
  // safely complete a pending close-after-flush.
  SubmitReply(work.conn, frame);
  work.conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
  SignalEventFd(workers_[work.conn->worker_index]->wake_fd);
}

void Server::ExecuteBatch(std::vector<Work>* group) {
  const size_t n = group->size();
  const Request& head = group->front().request;
  const bool is_knn = head.type == MsgType::kKnn;

  // Per-request prologue first, in queue order: instrumentation, then the
  // deadline check, so a doomed request never costs engine work.
  if (options_.before_execute) {
    for (const Work& work : *group) options_.before_execute(work.request);
  }

  auto reply = [this](const Work& work, const persist::ByteWriter& frame) {
    // Same ordering contract as Execute: bytes, inflight decrement, wake.
    SubmitReply(work.conn, frame);
    work.conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
    SignalEventFd(workers_[work.conn->worker_index]->wake_fd);
  };

  std::vector<uint8_t> done(n, 0);
  auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    const Work& work = (*group)[i];
    const Request& request = work.request;
    if (request.deadline_ms > 0 &&
        now - work.arrival >= std::chrono::milliseconds(request.deadline_ms)) {
      persist::ByteWriter frame;
      EncodeErrorResponse(
          request.seq, WireStatus::kDeadlineExceeded,
          "deadline of " + std::to_string(request.deadline_ms) +
              "ms expired before execution",
          &frame);
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.deadline_exceeded;
      }
      reply(work, frame);
      done[i] = 1;
    }
  }

  std::vector<const SetRecord*> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!done[i]) queries.push_back(&(*group)[i].request.queries[0]);
  }
  std::vector<std::vector<Hit>> hits;
  AnswerThroughCache(is_knn, head.k, head.delta, queries, &hits);

  size_t answered = 0;
  for (size_t i = 0; i < n; ++i) {
    if (done[i]) continue;
    const Work& work = (*group)[i];
    Response response;
    response.seq = work.request.seq;
    response.status = WireStatus::kOk;
    response.results.push_back(std::move(hits[answered++]));
    ClampOversizedResponse(&response, work.request.type);
    persist::ByteWriter frame;
    EncodeResponse(response, work.request.type, &frame);
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      if (response.status == WireStatus::kOk) {
        ++counters_.requests_ok;
      } else {
        ++counters_.requests_error;
      }
    }
    reply(work, frame);
  }
}

bool Server::AnswerThroughCache(bool is_knn, size_t k, double delta,
                                const std::vector<const SetRecord*>& queries,
                                std::vector<std::vector<Hit>>* results,
                                const std::function<bool()>& before_engine) {
  const size_t n = queries.size();
  results->assign(n, {});
  std::vector<std::string> keys(n);
  std::vector<size_t> miss;
  for (size_t i = 0; i < n; ++i) {
    if (cache_ != nullptr) {
      SetView query = queries[i]->view();
      keys[i] = is_knn ? ResultCache::KnnKey(query, k)
                       : ResultCache::RangeKey(query, delta);
      if (auto cached = cache_->Get(keys[i])) {
        (*results)[i] = *cached;
        continue;
      }
    }
    miss.push_back(i);
  }
  if (miss.empty()) return true;
  if (before_engine && !before_engine()) return false;
  // The epoch is read BEFORE the engine runs, so a mutation completing
  // meanwhile makes what this call writes back unreachable.
  uint64_t epoch = cache_ != nullptr ? cache_->epoch() : 0;
  std::vector<SetRecord> batch;
  batch.reserve(miss.size());
  for (size_t i : miss) batch.push_back(*queries[i]);
  std::vector<api::QueryResult> answers = ReadEngine([&] {
    return is_knn ? engine_->KnnBatch(batch, k)
                  : engine_->RangeBatch(batch, delta);
  });
  for (size_t j = 0; j < miss.size(); ++j) {
    size_t i = miss[j];
    if (cache_ != nullptr) {
      cache_->Put(keys[i],
                  std::make_shared<const std::vector<Hit>>(answers[j].hits),
                  epoch);
    }
    (*results)[i] = std::move(answers[j].hits);
  }
  return true;
}

Response Server::HandleRequest(
    const Request& request, std::chrono::steady_clock::time_point arrival) {
  Response response;
  response.status = WireStatus::kOk;
  switch (request.type) {
    case MsgType::kPing:
      break;
    case MsgType::kDescribe: {
      ResultCache::Stats stats;
      if (cache_) stats = cache_->stats();
      std::string describe = engine_->Describe();
      describe += " | serve: io_workers=" +
                  std::to_string(options_.io_workers) +
                  " executors=" + std::to_string(options_.executors) +
                  " pending_cap=" + std::to_string(options_.max_pending);
      if (cache_) {
        describe += " cache=on bytes=" + std::to_string(options_.cache_bytes) +
                    " epoch=" + std::to_string(cache_->epoch()) +
                    " hits=" + std::to_string(stats.hits) +
                    " misses=" + std::to_string(stats.misses) +
                    " invalidations=" + std::to_string(stats.invalidations);
      } else {
        describe += " cache=off";
      }
      response.describe = std::move(describe);
      break;
    }
    case MsgType::kKnn:    // the executor loop sends these through
    case MsgType::kRange:  // ExecuteBatch; answered alike here
    case MsgType::kKnnBatch:
    case MsgType::kRangeBatch:
      HandleWireBatch(request, arrival, &response);
      break;
    case MsgType::kInsert: {
      Result<SetId> inserted =
          WriteEngine([&] { return engine_->Insert(request.queries[0]); });
      if (inserted.ok()) {
        // Bump AFTER the engine mutation: from here on, any entry cached
        // under an earlier epoch is unreachable (result_cache.h).
        if (cache_) cache_->BumpEpoch();
        response.inserted_id = inserted.value();
      } else {
        response.status = WireStatusFromCode(inserted.status().code());
        response.message = inserted.status().message();
      }
      break;
    }
    case MsgType::kDelete: {
      // Same locking and epoch protocol as kInsert: every mutation that
      // changes answers must make stale cache entries unreachable.
      Status deleted =
          WriteEngine([&] { return engine_->Delete(request.target_id); });
      if (deleted.ok()) {
        if (cache_) cache_->BumpEpoch();
      } else {
        response.status = WireStatusFromCode(deleted.code());
        response.message = deleted.message();
      }
      break;
    }
    case MsgType::kUpdate: {
      Status updated = WriteEngine([&] {
        return engine_->Update(request.target_id, request.queries[0]);
      });
      if (updated.ok()) {
        if (cache_) cache_->BumpEpoch();
      } else {
        response.status = WireStatusFromCode(updated.code());
        response.message = updated.message();
      }
      break;
    }
    case MsgType::kMaintainNow: {
      // Maintenance rewrites index internals, so on engines without the
      // concurrent-mutation contract it excludes queries like any write.
      Result<search::MaintenanceReport> report =
          WriteEngine([&] { return engine_->MaintainNow(); });
      if (report.ok()) {
        // No cache epoch bump: maintenance is exactness-preserving, so
        // every cached answer stays correct.
        response.maintenance_splits = report.value().splits;
        response.maintenance_recomputes = report.value().recomputes;
        response.maintenance_bits_dropped = report.value().bits_dropped;
      } else {
        response.status = WireStatusFromCode(report.status().code());
        response.message = report.status().message();
      }
      break;
    }
  }
  return response;
}

void Server::HandleWireBatch(const Request& request,
                             std::chrono::steady_clock::time_point arrival,
                             Response* response) {
  const bool is_knn =
      request.type == MsgType::kKnn || request.type == MsgType::kKnnBatch;
  std::vector<const SetRecord*> queries;
  queries.reserve(request.queries.size());
  for (const SetRecord& query : request.queries) queries.push_back(&query);
  // The budget is re-checked once between the cache phase and the engine
  // call (the fused probe is all-or-nothing, so there is no per-query
  // point to check at). Expiry voids the WHOLE response.
  auto within_deadline = [&] {
    return request.deadline_ms == 0 ||
           std::chrono::steady_clock::now() - arrival <
               std::chrono::milliseconds(request.deadline_ms);
  };
  if (!AnswerThroughCache(is_knn, request.k, request.delta, queries,
                          &response->results, within_deadline)) {
    *response = Response{};
    response->status = WireStatus::kDeadlineExceeded;
    response->message = "deadline of " + std::to_string(request.deadline_ms) +
                        "ms expired mid-batch";
  }
}

}  // namespace serve
}  // namespace les3

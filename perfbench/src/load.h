// Server set-up and the load generators: closed-loop serve::Client
// connections, pipelined connections that keep a fixed number of requests
// in flight, and an open-loop writer. All connections run in this process
// and talk to the server over loopback.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/search_engine.h"
#include "core/database.h"
#include "inputs.h"
#include "search/maintenance.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {

/// les3_serve's defaults (tools/les3_serve.cc): sharded_les3 with 4 shards
/// and heuristic groups, batch window 16, 64 MiB cache, 2 io workers,
/// executors = hardware concurrency.
les3::serve::ServerOptions ServeDefaults();
constexpr uint32_t kShards = 4;

struct ServerSetup {
  std::shared_ptr<les3::api::SearchEngine> engine;  // the opened snapshot
  std::shared_ptr<TracedEngine> traced;             // traced runs only
  std::unique_ptr<les3::serve::Server> server;
  double setup_s = 0, build_s = 0, save_s = 0, open_s = 0, snapshot_mb = 0;
};

/// Builds the index from `db`, saves it to `snapshot_path`, reopens it and
/// starts a fresh server on it (behind a TracedEngine when `registry` is
/// set); setup_s runs to the first Ping reply. Empty string on success,
/// else the error.
std::string SetUp(const les3::SetDatabase& db, const std::string& snapshot_path,
                  const RequestRegistry* registry, ServerSetup* out);

/// What the load generators saw.
struct LoadResult {
  uint64_t reads_attempted = 0;
  uint64_t reads_failed = 0;       // error replies and transport errors
  std::vector<double> read_ms;     // successful reads
  std::vector<int64_t> read_at_ns; // their completion times
  std::vector<uint32_t> served;    // query index of each successful read
  std::vector<std::vector<les3::Hit>> replies;  // parallel to `served`,
                                                // when replies are kept

  uint64_t writes_attempted = 0;   // Insert/Delete/Update and MaintainNow
  uint64_t writes_failed = 0;
  std::vector<double> write_ms;    // Insert/Delete/Update, from due time
  std::vector<int64_t> write_at_ns;  // their due times
  double writer_max_late_ms = 0;   // how late the generator sent
  uint64_t maintains = 0;
  les3::search::MaintenanceReport maintenance;
  std::vector<std::pair<les3::SetId, uint32_t>> inserted;  // id, write op

  std::vector<ClientSpan> spans;   // traced runs only

  void Merge(LoadResult other);
};

/// Tracing hooks shared by every connection of a traced run.
struct Tracing {
  RequestRegistry* registry = nullptr;
  std::atomic<uint64_t> next_request{1};
};

struct ReadSpec {
  bool knn = true;
  size_t k = 10;
  double delta = 0.8;
};

/// Yields connection c's next query index; false ends that connection.
using NextQuery = std::function<bool(size_t connection, uint32_t* query)>;

/// `connections` closed-loop serve::Client connections: each sends its
/// next query only after the previous reply arrived, until `deadline_ns`.
void ClosedLoopReads(uint16_t port, size_t connections,
                     const les3::SetDatabase& queries, const NextQuery& next,
                     const ReadSpec& spec, int64_t deadline_ns,
                     bool keep_replies, Tracing* tracing, LoadResult* out);

/// `connections` pipelined connections, each keeping `window` single-query
/// requests in flight until `deadline_ns` (serve::Client answers one
/// request at a time, so these speak the serve/wire.h codec over a socket
/// of their own). Latency runs from the write that carried a request to
/// the arrival of its reply.
void PipelinedReads(uint16_t port, size_t connections, size_t window,
                    const les3::SetDatabase& queries,
                    const NextQuery& next, const ReadSpec& spec,
                    int64_t deadline_ns, bool keep_replies, Tracing* tracing,
                    LoadResult* out);

/// One serve::Client connection sending `writes` in order, open loop:
/// write i is due at start_ns + i / rate (rate > 0) and its latency runs
/// from that due time. A MaintainNow follows every `maintain_every` (> 0)
/// writes. Stops at `deadline_ns` or when `writes` runs out.
void SendWrites(uint16_t port, const std::vector<WriteOp>& writes,
                double rate, size_t maintain_every, int64_t deadline_ns,
                int64_t start_ns, Tracing* tracing, LoadResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_

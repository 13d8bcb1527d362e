// les3_perfbench — what clients of a running les3_serve see, and where the
// time goes. See README.md for the workloads, the metrics and the tracing
// method.
//
//   les3_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out DIR]
//   les3_perfbench --self-test
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones. Exit codes: 0 correct run, 1 wrong answers or a
// failed self-check, 2 usage error.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/simd_dispatch.h"
#include "gate.h"
#include "hostspeed.h"
#include "inputs.h"
#include "l2p/cascade.h"
#include "load.h"
#include "persist/snapshot.h"
#include "trace.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "windows.h"

namespace perfbench {
namespace {


constexpr size_t kSetups = 12;          // set-ups per run; setup_s = median
constexpr size_t kInstances = 8;        // fresh servers measured per run
constexpr double kWarmupSeconds = 0.5;  // load before each measured span
constexpr size_t kMaintainEvery = 10;   // writes between MaintainNow calls
constexpr size_t kProbeSample = 64;     // post-write probes from the pool
constexpr size_t kOracleSample = 48;    // queries the oracle is checked on
constexpr size_t kReplayedReads = 400;  // traced read calls replayed
// Read-only workloads: before each server, the query pool is topped up to
// hold this many times the queries the server would take at the highest
// read rate known (the workload's ceiling or any faster server of the
// run), so only a program that got this much faster could run it dry.
constexpr double kPoolHeadroom = 4.0;
constexpr size_t kK = 10;
// mixed-churn's hot queries have a typical size: with a few hot queries
// drawing most reads, one tiny or huge one would set a seed's figures.
constexpr size_t kHotMinSize = 5;
constexpr size_t kHotMaxSize = 15;

struct Workload {
  const char* name;
  bool knn;              // kNN k=10, else Range delta=0.8
  size_t connections;    // read connections
  size_t in_flight;      // requests in flight per read connection; > 1
                         // pipelines them over the wire codec
  double ceiling_qps;    // read-only: about the fastest server seen, reads/s
  size_t hot_pool;       // > 0: reads draw Zipf-skewed from this pool
  double zipf;
  double write_rate;     // > 0: an open-loop writer beside the reads
  double min_hit_ratio;  // the cache hit ratio the workload is sized for
  double max_hit_ratio;
};

const Workload kWorkloads[] = {
    {"knn-cold", true, 4, 1, 2500, 0, 0.0, 0.0, 0.0, 0.01},
    {"range-pipelined", false, 2, 16, 110000, 0, 0.0, 0.0, 0.0, 0.01},
    {"mixed-churn", true, 3, 1, 0, 1000, 1.0, 20.0, 0.2, 0.8},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Statistics

/// Runs ok(i) for i in [0, n) on `pool`; returns the failures.
uint64_t CountWrong(les3::ThreadPool* pool, size_t n,
                    const std::function<bool(size_t)>& ok) {
  std::atomic<uint64_t> wrong{0};
  pool->ParallelFor(n, [&](size_t i) {
    if (!ok(i)) ++wrong;
  });
  return wrong.load();
}

// ---------------------------------------------------------------------------
// One measured phase: a fresh server under the workload's load, then the
// correctness gate.

struct Phase {
  LoadResult load;
  std::vector<Window> measured;  // after kWarmupSeconds of load
  les3::serve::ResultCache::Stats cache;
  std::vector<EngineCall> calls;  // traced phases: engine calls of the load
  uint64_t checked = 0;           // replies compared with the oracle
  uint64_t wrong = 0;             // of those, mismatches
  uint64_t probes = 0;            // post-write probe reads sent
  uint64_t probes_failed = 0;     // error replies, wrong answers, lost ids
  uint64_t oracle_wrong = 0;      // oracle disagreed with brute force
  bool pool_exhausted = false;
  double gate_s = 0.0;

  uint64_t attempted() const {
    return load.reads_attempted + load.writes_attempted + probes;
  }
  uint64_t failed() const {
    return load.reads_failed + wrong + load.writes_failed + probes_failed;
  }
};

/// After the writes: a seeded probe sample and every acknowledged insert's
/// own content, served by the server and compared with the oracle over
/// the engine's StableDb() (itself checked against brute force on part of
/// the sample); each inserted id must be in its own answer.
void PostWriteCheck(const Inputs& in, const ServerSetup& setup, uint64_t seed,
                    les3::ThreadPool* pool, Phase* phase) {
  const int64_t t0 = NowNs();
  std::shared_ptr<const les3::SetDatabase> final_db = setup.engine->StableDb();
  Oracle oracle(*final_db);
  les3::Rng rng(seed ^ 0x9e0be);
  les3::SetDatabase probes(final_db->num_tokens());
  for (uint32_t i : rng.SampleWithoutReplacement(
           static_cast<uint32_t>(in.queries.size()),
           static_cast<uint32_t>(std::min(kProbeSample, in.queries.size())))) {
    probes.AddSet(in.queries.set(i));
  }
  phase->oracle_wrong +=
      ValidateOracle(oracle, *final_db, probes, 8, kK, 0.8, pool);
  const size_t first_insert = probes.size();
  for (const auto& [id, op] : phase->load.inserted) {
    probes.AddSet(in.writes[op].set);
  }
  std::atomic<size_t> cursor{0};
  LoadResult result;
  ClosedLoopReads(
      setup.server->port(), std::min<size_t>(4, pool->num_threads()), probes,
      [&](size_t, uint32_t* q) {
        *q = static_cast<uint32_t>(cursor++);
        return *q < probes.size();
      },
      ReadSpec{true, kK, 0.0}, INT64_MAX, true, nullptr, &result);
  phase->probes += result.reads_attempted;
  phase->probes_failed += result.reads_failed;
  phase->probes_failed += CountWrong(pool, result.served.size(), [&](size_t i) {
    const uint32_t q = result.served[i];
    const auto& reply = result.replies[i];
    if (!oracle.CheckKnn(probes.set(q), kK, reply)) return false;
    if (q < first_insert) return true;
    const les3::SetId id = phase->load.inserted[q - first_insert].first;
    return std::any_of(reply.begin(), reply.end(),
                       [id](const les3::Hit& h) { return h.first == id; });
  });
  phase->gate_s += static_cast<double>(NowNs() - t0) / 1e9;
}

/// Loads one fresh server for `windows` measured seconds. Read-only
/// workloads take queries from the pool at `*cursor`, which carries on
/// across the servers of a run, so no query repeats; running out of pool
/// sets phase.pool_exhausted. On mixed-churn,
/// server `server` shifts the Zipf ranks by server * |pool| / kInstances,
/// so each server of a run has other queries on top.
Phase RunPhase(const Workload& w, const Inputs& in, const Oracle& oracle,
               const ServerSetup& setup, size_t server, size_t windows,
               Tracing* tracing, uint64_t seed, les3::ThreadPool* pool,
               std::atomic<size_t>* cursor) {
  Phase phase;
  const uint16_t port = setup.server->port();
  const ReadSpec spec{w.knn, kK, 0.8};
  const size_t connections = std::min(w.connections, pool->num_threads());
  const int64_t start = NowNs();
  const int64_t from = start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t deadline = from + int64_t(windows) * kWindowNs;
  StealMeter meter(from, windows);

  if (w.hot_pool > 0) {
    std::vector<size_t> position(connections, 0);
    const size_t shift = server * in.queries.size() / kInstances;
    NextQuery next = [&](size_t c, uint32_t* q) {
      const auto& stream = in.streams[c];
      const size_t rank = stream[position[c]++ % stream.size()];
      *q = static_cast<uint32_t>((rank + shift) % in.queries.size());
      return true;
    };
    LoadResult writes;
    std::thread writer([&] {
      SendWrites(port, in.writes, w.write_rate, kMaintainEvery, deadline,
                 start, tracing, &writes);
    });
    ClosedLoopReads(port, connections, in.queries, next, spec, deadline, false,
                    tracing, &phase.load);
    writer.join();
    phase.load.Merge(std::move(writes));
  } else {
    std::atomic<bool> exhausted{false};
    NextQuery next = [&](size_t, uint32_t* q) {
      size_t i = (*cursor)++;
      if (i >= in.queries.size()) {
        exhausted = true;
        return false;
      }
      *q = static_cast<uint32_t>(i);
      return true;
    };
    if (w.in_flight > 1) {
      PipelinedReads(port, connections, w.in_flight, in.queries, next, spec,
                     deadline, true, tracing, &phase.load);
    } else {
      ClosedLoopReads(port, connections, in.queries, next, spec, deadline,
                      true, tracing, &phase.load);
    }
    phase.pool_exhausted = exhausted;
  }
  phase.measured = Bucket(from, meter.Shares(), phase.load.read_at_ns,
                          phase.load.read_ms, phase.load.write_at_ns,
                          phase.load.write_ms);
  if (setup.server->cache() != nullptr) phase.cache = setup.server->cache()->stats();
  if (setup.traced) phase.calls = setup.traced->TakeCalls();

  if (w.hot_pool == 0) {
    // Every served reply against the oracle over the generated database
    // (no write has run yet).
    const int64_t t0 = NowNs();
    const auto& load = phase.load;
    phase.checked = load.served.size();
    phase.wrong = CountWrong(pool, load.served.size(), [&](size_t i) {
      const les3::SetView q = in.queries.set(load.served[i]);
      return spec.knn ? oracle.CheckKnn(q, kK, load.replies[i])
                      : oracle.CheckRange(q, spec.delta, load.replies[i]);
    });
    phase.gate_s += static_cast<double>(NowNs() - t0) / 1e9;
  }
  if (!phase.load.write_ms.empty()) PostWriteCheck(in, setup, seed, pool, &phase);
  return phase;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string Join(const std::vector<uint32_t>& v) {
  std::string s;
  for (size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + std::to_string(v[i]);
  return s;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  std::string out = ".bench_build/perfbench-run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (value == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atof(value);
    } else if (arg == "--trace") {
      args->trace = std::atoi(value);
    } else if (arg == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return args->self_test ||
         (!args->workload.empty() && args->seconds > 0 &&
          (args->trace == 0 || args->trace == 1));
}

void MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') mkdir(path.substr(0, i).c_str(), 0755);
  }
}

/// Whether `inputs`, its query pool extended any number of times, is what
/// the seed generates in one go.
bool Regenerates(uint64_t seed, InputSpec spec, const Inputs& inputs) {
  spec.num_queries = inputs.queries.size();
  return Identical(MakeInputs(seed, spec), inputs);
}

int SelfTest() {
  InputSpec spec;
  spec.num_queries = 200;
  spec.stream_connections = 2;
  spec.stream_length = 1000;
  spec.num_writes = 30;
  Inputs in = MakeInputs(3, spec);
  bool same = Regenerates(3, spec, in);
  bool differs = Digest(MakeInputs(4, spec)) != Digest(in);
  // A read pool extended in steps equals the pool generated in one go.
  InputSpec pool_only;
  pool_only.num_queries = 200;
  Inputs grown = MakeInputs(3, pool_only);
  grown.more_queries.Extend(grown.db, 100, &grown.queries);
  bool extends = Regenerates(3, pool_only, grown);
  Oracle oracle(in.db);
  les3::ThreadPool pool(4);
  bool gate = GateSelfTest(oracle, in.db, in.queries) &&
              ValidateOracle(oracle, in.db, in.queries, in.queries.size(), kK,
                             0.8, &pool) == 0;
  std::printf("self-test: equal seeds byte-identical %s, pool extended in "
              "steps byte-identical %s, different seeds differ %s, oracle "
              "agrees with brute force and rejects corrupted replies %s\n",
              same ? "yes" : "NO", extends ? "yes" : "NO",
              differs ? "yes" : "NO", gate ? "yes" : "NO");
  return same && extends && differs && gate ? 0 : 1;
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const bool traced = args.trace == 1;
  MakeDirs(args.out);
  const std::string tag = std::string(w->name) + "-seed" +
                          std::to_string(args.seed) + "-trace" +
                          std::to_string(args.trace);
  const std::string snapshot = args.out + "/" + tag + "-" +
                               std::to_string(getpid()) + ".snap";

  // Set-ups: kSetups in all, timed; the last `instances` of them are the
  // fresh servers the run measures, one after the other, each under load
  // for kWarmupSeconds plus `windows_each` measured windows. A traced run
  // measures one untraced server, then one behind a TracedEngine.
  const size_t instances = traced ? 2 : kInstances;
  const double window_s = double(kWindowNs) / 1e9;
  const size_t windows_each = std::max<size_t>(
      1, size_t(std::lround(args.seconds / double(instances) / window_s)));
  const double load_s = kWarmupSeconds + double(windows_each) * window_s;
  les3::ThreadPool pool(nproc);

  // Inputs and the gate's own self-test. Read-only workloads start with the
  // pool the first server needs; it grows before each later one.
  InputSpec spec;
  auto pool_for = [&](double qps) {
    return size_t(kPoolHeadroom * qps * load_s) + 1;
  };
  spec.num_queries = w->hot_pool > 0 ? w->hot_pool : pool_for(w->ceiling_qps);
  if (w->hot_pool > 0) {
    spec.stream_connections = w->connections;
    spec.stream_length = 1 << 16;
    spec.zipf_exponent = w->zipf;
    spec.min_query_size = kHotMinSize;
    spec.max_query_size = kHotMaxSize;
    spec.num_writes = size_t(w->write_rate * load_s) + 30;
  }
  int64_t t0 = NowNs();
  Inputs in = MakeInputs(args.seed, spec);
  Oracle oracle(in.db);
  const size_t sample = std::min(kOracleSample, in.queries.size());
  const size_t oracle_wrong =
      ValidateOracle(oracle, in.db, in.queries, sample, kK, 0.8, &pool);
  const bool gate_ok =
      oracle_wrong == 0 && GateSelfTest(oracle, in.db, in.queries);
  std::printf("workload %s seed %llu seconds %g trace %d\n", w->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("inputs: %zu sets, %zu distinct queries to start with, %zu "
              "writes (%.2f s)\n",
              in.db.size(), in.queries.size(), in.writes.size(),
              double(NowNs() - t0) / 1e9);
  std::printf("gate self-test: oracle agrees with brute force on %zu/%zu "
              "sampled queries, corrupted replies rejected: %s\n",
              sample - oracle_wrong, sample,
              gate_ok ? "pass" : "FAIL");

  std::vector<double> setup_s, build_s, save_s, open_s, snapshot_mb;
  RequestRegistry registry;
  Tracing tracing;
  tracing.registry = &registry;
  auto set_up = [&](bool with_tracing, ServerSetup* setup) {
    *setup = ServerSetup();
    std::string error =
        SetUp(in.db, snapshot, with_tracing ? &registry : nullptr, setup);
    if (!error.empty()) {
      std::fprintf(stderr, "error: set-up failed: %s\n", error.c_str());
      return false;
    }
    setup_s.push_back(setup->setup_s);
    build_s.push_back(setup->build_s);
    save_s.push_back(setup->save_s);
    open_s.push_back(setup->open_s);
    snapshot_mb.push_back(setup->snapshot_mb);
    return true;
  };
  ServerSetup setup;
  for (size_t i = 0; i + instances < kSetups; ++i) {
    if (!set_up(false, &setup)) return 1;
  }
  const double index_mb = double(setup.engine->IndexBytes()) / (1 << 20);
  std::vector<uint32_t> groups;
  {
    auto loaded = les3::persist::LoadSnapshot(snapshot);
    if (loaded.ok()) {
      for (const auto& shard : loaded.value().shards) {
        groups.push_back(shard.tgm.num_groups());
      }
    }
  }
  // The cascade trains a model only to split past its sorted
  // initialization, so no shard with at most init_groups groups trained one.
  const uint32_t init_groups = les3::l2p::CascadeOptions().init_groups;
  const bool l2p_trained =
      std::any_of(groups.begin(), groups.end(),
                  [&](uint32_t g) { return g > init_groups; });
  const auto serve = ServeDefaults();
  std::printf(
      "stamp {\"nproc\": %zu, \"simd\": \"%s\", \"backend\": \"sharded_les3\", "
      "\"shards\": %zu, \"groups_per_shard\": [%s], \"sets\": %zu, "
      "\"read_connections\": %zu, \"in_flight_per_connection\": %zu, "
      "\"write_connections\": %d, \"write_rate\": %g, \"cache_mb\": %zu, "
      "\"batch_window\": %zu, \"io_workers\": %zu, \"executors\": %zu, "
      "\"l2p_models_trained\": %s}\n",
      nproc, les3::simd::LevelName(les3::simd::ActiveLevel()), groups.size(),
      Join(groups).c_str(), in.db.num_live(), std::min(w->connections, nproc),
      w->in_flight, w->write_rate > 0 ? 1 : 0, w->write_rate,
      serve.cache_bytes >> 20, serve.batch_window, serve.io_workers,
      setup.server->options().executors, l2p_trained ? "true" : "false");
  std::printf("setup: %zu runs, median %.3f s (build %.3f, save %.3f, open "
              "%.3f), snapshot %.2f MiB, index %.2f MiB\n",
              kSetups, Median(setup_s), Median(build_s), Median(save_s),
              Median(open_s), Median(snapshot_mb), index_mb);

  std::vector<Phase> phases;
  std::vector<double> pass_s;  // host speed before each server and at the end
  std::atomic<size_t> cursor{0};
  double peak_qps = w->ceiling_qps;
  bool pool_exhausted = false;
  for (size_t i = 0; i < instances; ++i) {
    const bool traced_instance = traced && i == 1;
    const size_t want = cursor.load() + pool_for(peak_qps);
    if (w->hot_pool == 0 && in.queries.size() < want) {
      in.more_queries.Extend(in.db, want - in.queries.size(), &in.queries);
    }
    pass_s.push_back(ReferencePassSeconds(nproc));
    if (!set_up(traced_instance, &setup)) return 1;
    phases.push_back(RunPhase(*w, in, oracle, setup, i, windows_each,
                              traced_instance ? &tracing : nullptr, args.seed,
                              &pool, &cursor));
    setup = ServerSetup();
    const Phase& p = phases.back();
    peak_qps = std::max(peak_qps, double(p.load.reads_attempted) / load_s);
    if (p.pool_exhausted) {
      pool_exhausted = true;
      std::fprintf(stderr,
                   "error: server %zu used up the query pool: it read more "
                   "than %gx the fastest rate known (%.0f/s); raise the "
                   "workload's ceiling_qps\n",
                   i + 1, kPoolHeadroom, peak_qps);
    }
  }
  pass_s.push_back(ReferencePassSeconds(nproc));
  const double scale = ScaleToNominal(Median(pass_s));

  // Regenerated from the seed in one go, the inputs are byte-identical to
  // the pool as it was extended. (The pool grows no more: its generator's
  // record of seen queries is dropped first, to halve the peak memory.)
  t0 = NowNs();
  in.more_queries = QueryStream(0, 1, SIZE_MAX);
  const bool deterministic = Regenerates(args.seed, spec, in);
  std::printf("inputs: %zu distinct queries generated, digest %016llx, "
              "regenerated byte-identical: %s (%.2f s)\n",
              in.queries.size(), static_cast<unsigned long long>(Digest(in)),
              deterministic ? "yes" : "NO", double(NowNs() - t0) / 1e9);

  uint64_t attempted = 0, failed = 0, wrong = 0, hits = 0, lookups = 0;
  std::vector<Window> windows;     // of every untraced server
  for (size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    attempted += p.attempted();
    failed += p.failed();
    wrong += p.wrong + p.probes_failed + p.oracle_wrong;
    if (!traced || i == 0) {
      windows.insert(windows.end(), p.measured.begin(), p.measured.end());
    }
    const Summary server = Summarize(p.measured);
    std::set<uint32_t> distinct(p.load.served.begin(), p.load.served.end());
    hits += p.cache.hits;
    lookups += p.cache.hits + p.cache.misses;
    std::printf("server %zu%s: reads %zu ok / %llu attempted, %zu distinct "
                "queries; measured %zu x %g s after %.1f s of warm-up, %zu "
                "quiet: qps %.1f, p50 %.3f ms, p99 %.3f ms (raw); reference "
                "pass before it %.2f us\n",
                i + 1, traced ? (i == 0 ? " (untraced)" : " (traced)") : "",
                p.load.read_ms.size(),
                static_cast<unsigned long long>(p.load.reads_attempted),
                distinct.size(), p.measured.size(), window_s, kWarmupSeconds,
                server.kept, server.qps, server.p50_ms, server.p99_ms,
                pass_s[i] * 1e6);
    std::printf("  reads per window:");
    for (const Window& win : p.measured) std::printf(" %zu", win.read_ms.size());
    std::printf("\n  host steal per window:");
    for (const Window& win : p.measured) std::printf(" %.3f", win.steal);
    std::printf("\n");
    std::printf("  cache: %llu hits / %llu lookups (ratio %.4f), %llu "
                "invalidations, %llu evictions\n",
                static_cast<unsigned long long>(p.cache.hits),
                static_cast<unsigned long long>(p.cache.hits + p.cache.misses),
                p.cache.hits + p.cache.misses
                    ? double(p.cache.hits) / double(p.cache.hits + p.cache.misses)
                    : 0.0,
                static_cast<unsigned long long>(p.cache.invalidations),
                static_cast<unsigned long long>(p.cache.evictions));
    if (p.load.writes_attempted > 0) {
      std::printf("  writes: %zu ok / %llu attempted (incl. %llu MaintainNow); "
                  "in the quiet windows p50 %.3f ms p99 %.3f ms (n=%zu); "
                  "generator late by at most %.3f ms\n",
                  p.load.write_ms.size(),
                  static_cast<unsigned long long>(p.load.writes_attempted),
                  static_cast<unsigned long long>(p.load.maintains),
                  Percentile(server.write_ms, 0.5),
                  Percentile(server.write_ms, 0.99), server.write_ms.size(),
                  p.load.writer_max_late_ms);
    }
    std::printf("  gate: %llu served replies and %llu post-write probes "
                "checked, %llu wrong; oracle disagreements with brute force "
                "after the writes: %llu (%.2f s)\n",
                static_cast<unsigned long long>(p.checked),
                static_cast<unsigned long long>(p.probes),
                static_cast<unsigned long long>(p.wrong + p.probes_failed),
                static_cast<unsigned long long>(p.oracle_wrong), p.gate_s);
  }
  const double fail_ratio = attempted ? double(failed) / double(attempted) : 1.0;
  const bool correct = deterministic && gate_ok && wrong == 0 && failed == 0 &&
                       !pool_exhausted;
  // The cache hit ratio the workload is sized for; outside it the workload
  // no longer exercises what README.md says it does.
  const double hit_ratio = lookups ? double(hits) / double(lookups) : 0.0;
  std::printf("cache hit ratio %.4f over the run (sized for %.2f-%.2f)\n",
              hit_ratio, w->min_hit_ratio, w->max_hit_ratio);
  if (hit_ratio < w->min_hit_ratio || hit_ratio >= w->max_hit_ratio) {
    std::printf("warning: cache hit ratio %.4f is outside %.2f-%.2f\n",
                hit_ratio, w->min_hit_ratio, w->max_hit_ratio);
    std::fprintf(stderr, "warning: cache hit ratio %.4f is outside %.2f-%.2f\n",
                 hit_ratio, w->min_hit_ratio, w->max_hit_ratio);
  }
  std::printf("fail_ratio %.6g (%llu failed of %llu attempted)\n", fail_ratio,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));


  // The run's quiet windows across its untraced servers.
  const Summary run = Summarize(windows);
  const double write_p50 = Percentile(run.write_ms, 0.5);
  const double write_p99 = Percentile(run.write_ms, 0.99);

  std::printf("run: %zu quiet windows of %zu over %zu servers (%zu reads), "
              "raw: qps %.1f, p50 %.3f ms, p99 %.3f ms, setup %.4f s; writes "
              "p50 %.3f ms, p99 %.3f ms\n",
              run.kept, windows.size(), traced ? size_t(1) : phases.size(),
              run.reads, run.qps, run.p50_ms, run.p99_ms, Median(setup_s),
              write_p50, write_p99);
  std::printf("host speed: reference pass %.2f us (median of %zu, %.2f-%.2f), "
              "nominal %.2f us: timings scaled by %.4f\n",
              Median(pass_s) * 1e6, pass_s.size(),
              *std::min_element(pass_s.begin(), pass_s.end()) * 1e6,
              *std::max_element(pass_s.begin(), pass_s.end()) * 1e6,
              kNominalPassSeconds * 1e6, scale);

  std::vector<Metric> metrics;
  const Phase& last = phases.back();
  if (!traced) {
    metrics = {
        {"qps", run.qps * scale, "1/s"},
        {"p50_ms", run.p50_ms / scale, "ms"},
        {"p99_ms", run.p99_ms / scale, "ms"},
        {"setup_s", Median(setup_s) / scale, "s"},
        {"index_mb", index_mb, "MiB"},
    };
  } else {
    bool replay_ok = true;
    const std::string spans_path = args.out + "/" + tag + "-spans.tsv";
    std::vector<LayerMetric> layers =
        Analyze(snapshot, last.load.spans, last.calls, args.seed,
                kReplayedReads, spans_path, &replay_ok);
    if (!replay_ok) {
      std::fprintf(stderr, "error: the replay did not match the served engine\n");
    }
    const auto& cache = last.cache;
    const uint64_t traced_lookups = cache.hits + cache.misses;
    const Summary traced_run = Summarize(last.measured);
    const double untraced_p50 = run.p50_ms;
    const double traced_p50 = traced_run.p50_ms;
    const auto& m = last.load.maintenance;
    const size_t traced_reads = traced_run.reads;
    layers.push_back({"serve.cache_hit_ratio",
                      traced_lookups
                          ? double(cache.hits) / double(traced_lookups)
                          : 0.0,
                      "ratio", traced_lookups});
    layers.push_back({"serve.cache_invalidations", double(cache.invalidations),
                      "count", traced_lookups});
    layers.push_back({"serve.cache_evictions", double(cache.evictions), "count",
                      traced_lookups});
    layers.push_back({"search.maintenance_splits", double(m.splits), "count",
                      last.load.maintains});
    layers.push_back({"search.maintenance_recomputes", double(m.recomputes),
                      "count", last.load.maintains});
    layers.push_back({"search.maintenance_bits_dropped", double(m.bits_dropped),
                      "count", last.load.maintains});
    layers.push_back({"build.index_s", Median(build_s), "s", kSetups});
    layers.push_back({"persist.save_s", Median(save_s), "s", kSetups});
    layers.push_back({"persist.open_s", Median(open_s), "s", kSetups});
    layers.push_back({"persist.snapshot_mb", Median(snapshot_mb), "MiB", kSetups});
    layers.push_back({"trace.overhead_p50_ms", traced_p50 - untraced_p50, "ms",
                      traced_reads});
    layers.push_back({"write_p50_ms", write_p50, "ms", run.write_ms.size()});
    layers.push_back({"write_p99_ms", write_p99, "ms", run.write_ms.size()});
    layers.push_back({"fail_ratio", fail_ratio, "ratio", attempted});

    std::printf("per-layer metrics (mean per request; samples = requests, "
                "calls or set-ups behind the value):\n");
    for (const LayerMetric& l : layers) {
      std::printf("  %-34s %14.4f %-6s n=%llu\n", l.name.c_str(), l.value,
                  l.unit.c_str(), static_cast<unsigned long long>(l.samples));
      metrics.push_back({l.name, l.value, l.unit});
    }
    auto value = [&](const char* name) {
      for (const LayerMetric& l : layers) {
        if (l.name == name) return l.value;
      }
      return 0.0;
    };
    const double codec =
        value("serve.wire_encode_us") + value("serve.wire_decode_us");
    std::printf(
        "self time (us, mean per read; cache hits spend 0 in the engine): "
        "serve.round_trip %.2f = residual %.2f + codec %.2f + api.engine "
        "%.2f; api.engine (replayed reads) %.2f = shard.scatter %.2f + "
        "search.index %.2f; search.index = traverse_verify %.2f + tgm.probe "
        "%.2f\n",
        value("serve.round_trip_us"), value("serve.residual_us"), codec,
        value("serve.round_trip_us") - value("serve.residual_us") - codec,
        value("trace.replayed_engine_us"),
        value("shard.scatter_us"), value("search.index_us"),
        value("search.traverse_verify_us"), value("tgm.probe_us"));
    std::printf("tracing overhead: p50 %.4f ms traced vs %.4f ms untraced "
                "(%+.4f ms); spans in %s\n",
                traced_p50, untraced_p50, traced_p50 - untraced_p50,
                spans_path.c_str());
    if (!replay_ok) {
      PrintResult(false, attempted, failed + 1, metrics);
      std::remove(snapshot.c_str());
      return 1;
    }
  }
  std::remove(snapshot.c_str());
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: les3_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n"
                 "       les3_perfbench --self-test\n"
                 "workloads: knn-cold, range-pipelined, mixed-churn\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  return args.self_test ? perfbench::SelfTest() : perfbench::Run(args);
}

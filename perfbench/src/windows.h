// Measurement windows. Measured time is cut into half-second windows, and
// for each window the share of the machine's CPU time that the hypervisor
// gave to other guests (steal time, from /proc/stat) is recorded. In a
// window with a burst of steal the server's tail latency jumps several
// fold (a knn-cold server's p99 read 20.6 ms at 13-20% steal against
// ~6.3 ms for the others of its run), which says nothing about the
// program. So a run's figures come from its quiet windows: those with at
// most kQuietSteal steal, or, when fewer than half qualify, the half with
// the least steal. Steal does not depend on the program, so a stall the
// program causes stays in the figures.

#ifndef PERFBENCH_WINDOWS_H_
#define PERFBENCH_WINDOWS_H_

#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

constexpr int64_t kWindowNs = 500000000;
constexpr double kQuietSteal = 0.03;

/// Samples the host's cumulative steal and total CPU time at
/// from_ns + i * kWindowNs, i = 0 .. windows, on a thread of its own.
class StealMeter {
 public:
  StealMeter(int64_t from_ns, size_t windows);
  ~StealMeter();

  StealMeter(const StealMeter&) = delete;
  StealMeter& operator=(const StealMeter&) = delete;

  /// Waits for the last sample; the steal share of each window (0 where
  /// /proc/stat cannot be read).
  std::vector<double> Shares();

 private:
  struct Sample {
    int64_t steal = 0;  // cumulative jiffies over all CPUs
    int64_t total = 0;
  };
  std::vector<Sample> samples_;
  std::thread thread_;
};

/// One measured window.
struct Window {
  double steal = 0;              // host steal share
  std::vector<double> read_ms;   // latencies of the reads completed in it
  std::vector<double> write_ms;  // latencies of the writes due in it
};

/// Cuts the samples into consecutive windows of kWindowNs from from_ns,
/// one per entry of `steal`; `*_at[i]` is when sample i happened.
std::vector<Window> Bucket(int64_t from_ns, const std::vector<double>& steal,
                           const std::vector<int64_t>& read_at,
                           const std::vector<double>& read_ms,
                           const std::vector<int64_t>& write_at,
                           const std::vector<double>& write_ms);

/// A run's figures over its quiet windows: qps is the median of their read
/// counts, per second; read percentiles are taken over every read of the
/// quiet windows pooled, and their writes are pooled too.
struct Summary {
  size_t kept = 0;
  size_t reads = 0;
  double qps = 0, p50_ms = 0, p99_ms = 0;
  std::vector<double> write_ms;
};
Summary Summarize(const std::vector<Window>& windows);

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_WINDOWS_H_

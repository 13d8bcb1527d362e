#include "windows.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

/// Cumulative steal and total jiffies over all CPUs; zeros when /proc/stat
/// cannot be read.
void ReadSteal(int64_t* steal, int64_t* total) {
  *steal = 0;
  *total = 0;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return;
  long long v[8] = {0};
  int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return;
  *steal = v[7];
  for (long long x : v) *total += x;
}

/// The windows a run's figures use (see windows.h), ascending.
std::vector<size_t> QuietWindows(const std::vector<Window>& windows) {
  std::vector<size_t> order(windows.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return windows[a].steal < windows[b].steal;
  });
  size_t keep = (windows.size() + 1) / 2;
  while (keep < order.size() && windows[order[keep]].steal <= kQuietSteal) {
    ++keep;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace

StealMeter::StealMeter(int64_t from_ns, size_t windows)
    : samples_(windows + 1) {
  thread_ = std::thread([this, from_ns] {
    for (size_t i = 0; i < samples_.size(); ++i) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(from_ns + int64_t(i) * kWindowNs)));
      ReadSteal(&samples_[i].steal, &samples_[i].total);
    }
  });
}

StealMeter::~StealMeter() {
  if (thread_.joinable()) thread_.join();
}

std::vector<double> StealMeter::Shares() {
  if (thread_.joinable()) thread_.join();
  std::vector<double> shares;
  for (size_t i = 1; i < samples_.size(); ++i) {
    const int64_t total = samples_[i].total - samples_[i - 1].total;
    const int64_t steal = samples_[i].steal - samples_[i - 1].steal;
    shares.push_back(total > 0 ? double(steal) / double(total) : 0.0);
  }
  return shares;
}

std::vector<Window> Bucket(int64_t from_ns, const std::vector<double>& steal,
                           const std::vector<int64_t>& read_at,
                           const std::vector<double>& read_ms,
                           const std::vector<int64_t>& write_at,
                           const std::vector<double>& write_ms) {
  std::vector<Window> windows(steal.size());
  for (size_t w = 0; w < steal.size(); ++w) windows[w].steal = steal[w];
  auto place = [&](const std::vector<int64_t>& at, const std::vector<double>& ms,
                   std::vector<double> Window::*into) {
    for (size_t i = 0; i < at.size(); ++i) {
      if (at[i] < from_ns) continue;
      const size_t w = size_t((at[i] - from_ns) / kWindowNs);
      if (w < windows.size()) (windows[w].*into).push_back(ms[i]);
    }
  };
  place(read_at, read_ms, &Window::read_ms);
  place(write_at, write_ms, &Window::write_ms);
  return windows;
}

Summary Summarize(const std::vector<Window>& windows) {
  Summary s;
  std::vector<double> qps, read_ms;
  for (size_t i : QuietWindows(windows)) {
    const Window& w = windows[i];
    ++s.kept;
    qps.push_back(double(w.read_ms.size()) * 1e9 / double(kWindowNs));
    read_ms.insert(read_ms.end(), w.read_ms.begin(), w.read_ms.end());
    s.write_ms.insert(s.write_ms.end(), w.write_ms.begin(), w.write_ms.end());
  }
  s.reads = read_ms.size();
  s.qps = Median(qps);
  s.p50_ms = Percentile(read_ms, 0.5);
  s.p99_ms = Percentile(read_ms, 0.99);
  return s;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

}  // namespace perfbench

#include "hostspeed.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "trace.h"
#include "windows.h"

namespace perfbench {

namespace {

constexpr size_t kTableWords = size_t{1} << 20;  // 4 MiB
constexpr size_t kSortedLength = 8192;
constexpr size_t kGathers = 2048;
constexpr size_t kPassesPerSample = 10;
constexpr int64_t kMeasureNs = 500000000;

std::atomic<uint64_t> g_sink{0};  // keeps the passes from being optimized out

struct ReferenceData {
  std::vector<uint32_t> table;
  std::vector<uint32_t> a, b;  // sorted, values below 2^16
};

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const ReferenceData& Data() {
  static const ReferenceData data = [] {
    ReferenceData d;
    uint64_t state = 1;
    d.table.resize(kTableWords);
    for (uint32_t& w : d.table) w = static_cast<uint32_t>(SplitMix(&state));
    for (auto* v : {&d.a, &d.b}) {
      v->resize(kSortedLength);
      for (uint32_t& x : *v) x = static_cast<uint32_t>(SplitMix(&state) >> 48);
      std::sort(v->begin(), v->end());
    }
    return d;
  }();
  return data;
}

/// One pass: a sorted merge counting common values, then a chain of
/// dependent reads from the table.
uint64_t Pass(const ReferenceData& d, uint64_t seed) {
  uint64_t common = 0;
  size_t i = 0, j = 0;
  while (i < d.a.size() && j < d.b.size()) {
    if (d.a[i] < d.b[j]) {
      ++i;
    } else if (d.b[j] < d.a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  uint64_t x = seed + common;
  for (size_t k = 0; k < kGathers; ++k) {
    x = x * 0x9e3779b97f4a7c15ULL + d.table[x % kTableWords];
  }
  return x;
}

}  // namespace

double ReferencePassSeconds(size_t threads) {
  const ReferenceData& d = Data();
  std::vector<std::vector<double>> samples(threads);
  const int64_t start = NowNs() + 5000000;  // all threads begin together
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t x = t;
      while (NowNs() < start) {
      }
      for (int64_t now = start; now < start + kMeasureNs;) {
        for (size_t p = 0; p < kPassesPerSample; ++p) x = Pass(d, x);
        const int64_t end = NowNs();
        samples[t].push_back(double(end - now) / 1e9 / kPassesPerSample);
        now = end;
      }
      g_sink += x;
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<double> all;
  for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  return Median(all);
}

}  // namespace perfbench

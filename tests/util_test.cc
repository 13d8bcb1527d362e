// Unit tests for util/: Status/Result, Rng, ThreadPool, TableReporter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "util/csv.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace les3 {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    LES3_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(13);
  for (uint32_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto sample = rng.SampleWithoutReplacement(100, k);
    std::set<uint32_t> s(sample.begin(), sample.end());
    EXPECT_EQ(s.size(), k);
    for (uint32_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// A one-item ParallelFor runs on the calling thread: issued from inside a
// task of a one-worker pool (whose only worker is that task), a handoff
// would wait forever for a free worker.
TEST(ThreadPoolTest, SingleItemParallelForRunsOnCaller) {
  ThreadPool pool(1);
  std::thread::id task_thread;
  std::thread::id item_thread;
  std::atomic<int> items{0};
  pool.Submit([&] {
    task_thread = std::this_thread::get_id();
    pool.ParallelFor(1, [&](size_t i) {
      item_thread = std::this_thread::get_id();
      items.fetch_add(i == 0 ? 1 : 100);
    });
  });
  pool.Wait();
  EXPECT_EQ(items.load(), 1);
  EXPECT_EQ(item_thread, task_thread);

  // From outside the pool too: the caller runs the item itself.
  pool.ParallelFor(1, [&](size_t) { item_thread = std::this_thread::get_id(); });
  EXPECT_EQ(item_thread, std::this_thread::get_id());
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(TableReporterTest, CsvRoundTrip) {
  TableReporter t({"a", "b"});
  t.Add("x", 1);
  t.Add("y,z", 2.5);
  std::string path = ::testing::TempDir() + "/les3_csv_test.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "x,1");
  std::getline(in, line);
  EXPECT_EQ(line, "\"y,z\",2.5000");
  std::remove(path.c_str());
}

TEST(TableReporterTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  (void)x;
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Micros(), t.Millis());
}

}  // namespace
}  // namespace les3

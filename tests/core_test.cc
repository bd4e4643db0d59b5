// Unit tests for src/core: Status/Result, Rng, TablePrinter, Stopwatch,
// and ThreadPool's affinity-aware core count.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/rng.h"
#include "core/status.h"
#include "core/stopwatch.h"
#include "core/table_printer.h"
#include "core/thread_pool.h"

namespace one4all {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveValueUnsafe) {
  Result<std::string> r(std::string("payload"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.MoveValueUnsafe(), "payload");
}

Status FailingHelper() { return Status::Internal("inner"); }

Status PropagationDemo() {
  O4A_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_EQ(PropagationDemo().code(), StatusCode::kInternal);
}

Result<int> ProduceValue() { return 7; }

Status AssignOrReturnDemo(int* out) {
  O4A_ASSIGN_OR_RETURN(*out, ProduceValue());
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnExtractsValue) {
  int value = 0;
  ASSERT_TRUE(AssignOrReturnDemo(&value).ok());
  EXPECT_EQ(value, 7);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 15);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(13);
  for (double mean : {0.5, 3.0, 12.0, 50.0}) {
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.Poisson(mean));
    EXPECT_NEAR(acc / n, mean, mean * 0.1 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table("demo");
  table.SetHeader({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "2.5"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
}

TEST(TablePrinterTest, SeparatorInsertsRule) {
  TablePrinter table;
  table.SetHeader({"x"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  const std::string out = table.ToString();
  // header rule + top + bottom + separator = 4 dashes lines.
  int rules = 0;
  for (size_t pos = 0; (pos = out.find("\n---", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_GE(rules, 3);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(sw.ElapsedMillis(), 15.0);
  sw.Restart();
  EXPECT_LT(sw.ElapsedMillis(), 15.0);
}

#if defined(__linux__)
TEST(ThreadPoolTest, HardwareThreadsCountsTheAffinityMask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(ThreadPool::HardwareThreads(), CPU_COUNT(&set));

  // Pinned to one core, a thread sees one usable core, however many the
  // machine has. Only this helper thread's own affinity changes.
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &set)) ++first_cpu;
  int pinned_threads = -1;
  std::thread pinned([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first_cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    pinned_threads = ThreadPool::HardwareThreads();
  });
  pinned.join();
  EXPECT_EQ(pinned_threads, 1);
}
#endif

}  // namespace
}  // namespace one4all

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_loop.hpp"
#include "sim/random.hpp"

namespace h2sim::sim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(TimePoint::from_nanos(300), [&] { order.push_back(3); });
  loop.schedule_at(TimePoint::from_nanos(100), [&] { order.push_back(1); });
  loop.schedule_at(TimePoint::from_nanos(200), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().count_nanos(), 300);
}

TEST(EventLoop, SameInstantIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(TimePoint::from_nanos(50), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  TimePoint fired;
  loop.schedule_after(Duration::millis(5), [&] {
    loop.schedule_after(Duration::millis(7), [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired.count_nanos(), Duration::millis(12).count_nanos());
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  TimerHandle h = loop.schedule_after(Duration::millis(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelAfterFireIsNoop) {
  EventLoop loop;
  int count = 0;
  TimerHandle h = loop.schedule_after(Duration::millis(1), [&] { ++count; });
  loop.run();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or affect anything
  loop.run();
  EXPECT_EQ(count, 1);
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  loop.schedule_after(Duration::millis(10), [&] {
    // Scheduling "in the past" from inside a callback fires promptly.
    loop.schedule_at(TimePoint::from_nanos(0), [&] {
      EXPECT_EQ(loop.now().count_nanos(), Duration::millis(10).count_nanos());
    });
  });
  loop.run();
}

TEST(EventLoop, RunUntilStopsAtBound) {
  EventLoop loop;
  bool late = false;
  loop.schedule_after(Duration::millis(5), [] {});
  loop.schedule_after(Duration::millis(50), [&] { late = true; });
  loop.run(TimePoint::origin() + Duration::millis(10));
  EXPECT_FALSE(late);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.run();
  EXPECT_TRUE(late);
}

TEST(EventLoop, StopFromCallback) {
  EventLoop loop;
  int executed = 0;
  loop.schedule_after(Duration::millis(1), [&] {
    ++executed;
    loop.stop();
  });
  loop.schedule_after(Duration::millis(2), [&] { ++executed; });
  loop.run();
  EXPECT_EQ(executed, 1);
  loop.run();
  EXPECT_EQ(executed, 2);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.uniform(17), 17u);
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    const auto v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng r(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  const double p = static_cast<double>(hits) / n;
  EXPECT_NEAR(p, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.3);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  Rng a2(42);
  Rng child2 = a2.split();
  // Same lineage -> same stream.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(5);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  r.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// Known answers for one fixed seed, covering every draw op, split and
// shuffle. The other Rng tests compare two streams with each other; this one
// pins the literal stream, so any change to xoshiro256**, the seeding, the
// rejection sampler, the Box-Muller cache or the number of words an op
// consumes shows up here. Each trailing next_u64() pins how far the
// preceding ops advanced the stream. The log/sin/cos-based draws are
// compared to within a few ULP so the test does not depend on one libm.
TEST(Rng, KnownAnswersForFixedSeed) {
  Rng r(20200);
  EXPECT_EQ(r.next_u64(), 0x3c198c3f4d71b16dULL);
  EXPECT_EQ(r.next_u64(), 0xaf47cfcf08413fd4ULL);

  EXPECT_EQ(r.uniform(10), 5u);
  EXPECT_EQ(r.uniform(1), 0u);  // forced, but still consumes a word
  EXPECT_EQ(r.uniform((1ULL << 63) + 1), 0x5db1f299fe37d85cULL);  // rejects
  EXPECT_EQ(r.uniform_int(-5, 5), 3);
  EXPECT_EQ(r.uniform_int(7, 7), 7);

  EXPECT_EQ(r.uniform01(), 0x1.81c4f115f1c88p-1);
  EXPECT_EQ(r.uniform01(), 0x1.3e252c682bc29p-1);
  EXPECT_EQ(r.uniform_real(-1.5, 2.5), 0x1.ed6776b7075fp-1);

  // p <= 0 and p >= 1 short-circuit without consuming a word.
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_FALSE(r.bernoulli(-1.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  EXPECT_TRUE(r.bernoulli(2.0));
  EXPECT_TRUE(r.bernoulli(0.5));
  EXPECT_FALSE(r.bernoulli(0.5));
  EXPECT_EQ(r.next_u64(), 0xcaec23f5686cda16ULL);

  EXPECT_DOUBLE_EQ(r.exponential(3.0), 0x1.d86ec84fa43c6p+0);
  EXPECT_DOUBLE_EQ(r.gaussian(10.0, 2.0), 0x1.82df04fe02f6cp+2);
  // The second value of the Box-Muller pair comes from the cache.
  EXPECT_DOUBLE_EQ(r.gaussian(10.0, 2.0), 0x1.37d50f22d2106p+3);
  EXPECT_DOUBLE_EQ(r.gaussian(-1.0, 0.5), -0x1.0a114bfde7d67p-1);
  EXPECT_EQ(r.next_u64(), 0xaec51a1dbeedd139ULL);

  Rng child = r.split();
  EXPECT_EQ(child.next_u64(), 0x134fe55123f06ff7ULL);
  EXPECT_EQ(r.next_u64(), 0xa656cf974c35ad5dULL);

  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  r.shuffle(v);
  EXPECT_EQ(v, (std::vector<int>{9, 4, 5, 3, 8, 1, 7, 2, 6, 0}));
  EXPECT_EQ(r.next_u64(), 0xf3af226bd6492f95ULL);
}

TEST(Time, DurationArithmetic) {
  EXPECT_EQ((Duration::millis(1) + Duration::micros(500)).count_nanos(), 1'500'000);
  EXPECT_EQ((Duration::seconds(1) - Duration::millis(250)).to_millis(), 750.0);
  EXPECT_EQ((Duration::millis(10) * 3).to_millis(), 30.0);
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t = TimePoint::origin() + Duration::millis(5);
  EXPECT_EQ((t - TimePoint::origin()).to_millis(), 5.0);
  EXPECT_EQ((t + Duration::millis(5)).to_millis(), 10.0);
}

}  // namespace
}  // namespace h2sim::sim

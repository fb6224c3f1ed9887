// Tests for the cycle-simulation kernel and counters.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/counters.hpp"
#include "sim/kernel.hpp"

namespace gaurast::sim {
namespace {

/// Counts down N cycles then goes idle.
class Countdown final : public ClockedModule {
 public:
  explicit Countdown(int n) : remaining_(n) {}
  void evaluate(Cycle) override {
    if (staged_ > 0) return;
    if (remaining_ > 0) staged_ = 1;
  }
  void commit(Cycle) override {
    remaining_ -= staged_;
    staged_ = 0;
  }
  bool idle() const override { return remaining_ == 0; }
  std::string name() const override { return "countdown"; }

 private:
  int remaining_;
  int staged_ = 0;
};

TEST(SimKernel, RunsUntilAllIdle) {
  Countdown a(5), b(3);
  SimKernel kernel;
  kernel.add_module(&a);
  kernel.add_module(&b);
  const Cycle cycles = kernel.run(100);
  EXPECT_EQ(cycles, 5u);
  EXPECT_TRUE(kernel.all_idle());
}

TEST(SimKernel, ThrowsOnNonConvergence) {
  class Forever final : public ClockedModule {
   public:
    void evaluate(Cycle) override {}
    void commit(Cycle) override {}
    bool idle() const override { return false; }
    std::string name() const override { return "forever"; }
  } forever;
  SimKernel kernel;
  kernel.add_module(&forever);
  EXPECT_THROW(kernel.run(10), Error);
}

TEST(SimKernel, RejectsNullModule) {
  SimKernel kernel;
  EXPECT_THROW(kernel.add_module(nullptr), Error);
}

TEST(SimKernel, StepAdvancesClock) {
  SimKernel kernel;
  EXPECT_EQ(kernel.now(), 0u);
  kernel.step();
  kernel.step();
  EXPECT_EQ(kernel.now(), 2u);
}

// ------------------------------------------------------------ Counters --

TEST(CounterSet, IncrementAndGet) {
  CounterSet c;
  c.increment("fp32.add");
  c.increment("fp32.add", 4);
  EXPECT_EQ(c.get("fp32.add"), 5u);
  EXPECT_EQ(c.get("missing"), 0u);
}

TEST(CounterSet, MergeAccumulates) {
  CounterSet a, b;
  a.increment("x", 2);
  b.increment("x", 3);
  b.increment("y", 1);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 5u);
  EXPECT_EQ(a.get("y"), 1u);
}

TEST(CounterSet, SumPrefixSelectsFamily) {
  CounterSet c;
  c.increment(ops::kFp32Add, 10);
  c.increment(ops::kFp32Mul, 20);
  c.increment(ops::kBufRead, 99);
  EXPECT_EQ(c.sum_prefix("fp32."), 30u + c.get(ops::kFp32Div) +
                                       c.get(ops::kFp32Exp) +
                                       c.get(ops::kFp32Cmp));
  EXPECT_EQ(c.sum_prefix("buf."), 99u);
  EXPECT_EQ(c.sum_prefix("zzz"), 0u);
}

TEST(CounterSet, ClearEmpties) {
  CounterSet c;
  c.increment("x");
  c.clear();
  EXPECT_EQ(c.get("x"), 0u);
  EXPECT_TRUE(c.all().empty());
}

}  // namespace
}  // namespace gaurast::sim

// The one worker pool (util/worker_pool.h): the PS360_THREADS resolution,
// for_each_slot's slot contract, caller-runs joins, the thread budget that
// nested calls share, and the group lifetime rule. WorkerPoolTest,
// ForEachSlotTest and ExperimentTest are matched by the TSan ctest filter;
// the lifetime cases are the ones to run under ASan as well.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/worker_pool.h"

#include "test_support.h"

namespace ps360::util {
namespace {

using test::ScopedThreadsEnv;

TEST(ExperimentTest, ResolveThreadCountHonorsEnvOverride) {
  // PS360_THREADS pins the thread budget for reproducible perf runs; invalid
  // or unset values fall back to the hardware concurrency.
  const std::size_t hardware = [] {
    const ScopedThreadsEnv unset(nullptr);
    return resolve_thread_count();
  }();
  EXPECT_GE(hardware, 1u);
  for (const char* value : {"2", "3"}) {
    const ScopedThreadsEnv env(value);
    EXPECT_EQ(resolve_thread_count(), std::stoul(value)) << value;
  }
  // Not positive, not a number, trailing garbage.
  for (const char* invalid : {"0", "not-a-number", "2x"}) {
    const ScopedThreadsEnv env(invalid);
    EXPECT_EQ(resolve_thread_count(), hardware) << invalid;
  }
}

TEST(ForEachSlotTest, EverySlotRunsExactlyOnce) {
  // fn(i) writes only slot i: a slot claimed twice counts 2 (and races under
  // TSan), a skipped one 0. The threads are capped at n and the budget:
  // the hardware concurrency (unset), one, or three.
  for (const char* budget : {static_cast<const char*>(nullptr), "1", "3"}) {
    const ScopedThreadsEnv env(budget);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{37}}) {
      std::vector<int> runs(n, 0);
      for_each_slot(n, [&runs](std::size_t i) { ++runs[i]; });
      EXPECT_EQ(runs, std::vector<int>(n, 1))
          << "PS360_THREADS " << (budget != nullptr ? budget : "unset") << ", n " << n;
    }
  }
}

TEST(ForEachSlotTest, ExceptionReachesTheCaller) {
  // A failing slot throws on every thread budget, never std::terminate.
  for (const char* budget : {"1", static_cast<const char*>(nullptr)}) {
    const ScopedThreadsEnv env(budget);
    EXPECT_THROW(for_each_slot(8,
                               [](std::size_t i) {
                                 if (i == 5) throw std::invalid_argument("slot 5");
                               }),
                 std::invalid_argument)
        << "PS360_THREADS " << (budget != nullptr ? budget : "unset");
  }
  // Of two failing slots, the first to throw reaches the caller, whichever
  // thread ran it: the slot on the calling thread throws only after the
  // other one has thrown and 50 ms more have passed. With no worker free the
  // caller runs slot 0 alone and its exception is the only one.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<bool> helper_threw{false};
  try {
    for_each_slot(2, [&](std::size_t) {
      // Meet, so that both slots run at once; one alone goes on after 1 s.
      arrived.fetch_add(1);
      const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(1);
      while (arrived.load() < 2 && std::chrono::steady_clock::now() < until)
        std::this_thread::yield();
      if (std::this_thread::get_id() != caller) {
        helper_threw.store(true);
        throw std::runtime_error("helper");
      }
      while (!helper_threw.load() && std::chrono::steady_clock::now() < until)
        std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw std::runtime_error("caller");
    });
    ADD_FAILURE() << "no slot threw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), helper_threw.load() ? "helper" : "caller");
  }
}

// Holds every pool worker inside a task of its own group until open() or
// destruction, so a test controls which thread can claim what.
class BlockedWorkers {
 public:
  BlockedWorkers()
      : workers_(pool_workers()),
        group_(workers_, [this](std::size_t) {
          blocked_.fetch_add(1);
          gate_.wait();
        }) {
    for (std::size_t w = 0; w < workers_; ++w) group_.release(w);
    // Each worker claims one blocking task, so none is left to claim more.
    while (blocked_.load() < workers_) std::this_thread::yield();
  }
  ~BlockedWorkers() { open(); }

  void open() {
    if (open_) return;
    open_ = true;
    gate_.count_down();
    for (std::size_t w = 0; w < workers_; ++w) group_.join(w);
  }

 private:
  const std::size_t workers_;
  // Counts workers inside a blocking task; the constructor waits for all.
  std::atomic<std::size_t> blocked_{0};
  std::latch gate_{1};
  bool open_ = false;
  TaskGroup group_;  // last: its destructor waits on the members above
};

TEST(WorkerPoolTest, JoinRunsAnUnclaimedTaskOnTheJoiningThread) {
  BlockedWorkers blocked;
  std::thread::id ran_on;
  TaskGroup probe(1, [&ran_on](std::size_t) { ran_on = std::this_thread::get_id(); });
  probe.release(0);
  // No worker is free to claim it, so the join runs it here, before the
  // latch opens; waiting instead would never return.
  probe.join(0);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_FALSE(probe.outstanding(0));
}

TEST(WorkerPoolTest, NestedSlotsStayWithinTheThreadBudget) {
  // Four slots, each running four slots, all on the default budget: with one
  // pool no more than resolve_thread_count() threads run inner slots at
  // once, where threads started per call would run up to 16.
  const ScopedThreadsEnv unset(nullptr);
  const std::size_t budget = resolve_thread_count();
  // Inner slots running now, and the most seen at once.
  std::atomic<std::size_t> running{0};
  std::atomic<std::size_t> peak{0};
  for_each_slot(4, [&](std::size_t) {
    for_each_slot(4, [&](std::size_t) {
      const std::size_t now = running.fetch_add(1) + 1;
      std::size_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      // Hold the slot, so that threads beyond the budget would overlap it,
      // until the peak passes the budget or about 50 ms pass. The check
      // below does not depend on how long this takes.
      const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
      while (peak.load() <= budget && std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      running.fetch_sub(1);
    });
  });
  EXPECT_LE(peak.load(), budget);
}

TEST(WorkerPoolTest, GroupUnwindingFromATaskErrorWaitsForItsRunningTasks) {
  const std::size_t workers = pool_workers();
  // Tasks 1..workers running on the workers; the caller checks after the
  // group is gone that none still runs.
  std::atomic<std::size_t> running{0};
  std::atomic<bool> unwinding{false};
  try {
    // Destroyed after the group: a task still running once the group's
    // destructor returned would write into freed memory (ASan) or race
    // with its destruction (TSan).
    std::vector<int> ended(workers + 1, 0);
    TaskGroup group(workers + 1, [&](std::size_t i) {
      if (i == 0) {
        unwinding.store(true);
        throw std::runtime_error("task 0");
      }
      running.fetch_add(1);
      while (!unwinding.load()) std::this_thread::yield();
      // Still running while the owner unwinds.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ended[i] = 1;
      running.fetch_sub(1);
    });
    for (std::size_t i = 1; i <= workers; ++i) group.release(i);
    while (running.load() < workers) std::this_thread::yield();
    // Every worker is busy, so the join runs task 0 here and throws.
    group.release(0);
    group.join(0);
    ADD_FAILURE() << "task 0 did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
  }
  EXPECT_EQ(running.load(), 0u);
}

TEST(WorkerPoolTest, ForEachSlotReturnsWithoutItsQueuedHelpers) {
  const std::thread::id caller = std::this_thread::get_id();
  // Slots that ran off the calling thread, and slot runs in total.
  std::atomic<std::size_t> off_caller{0};
  std::atomic<std::size_t> calls{0};
  {
    BlockedWorkers blocked;
    // Destroyed when for_each_slot has returned: a helper that ran fn later
    // would write into freed memory (ASan).
    std::vector<int> runs(8, 0);
    for_each_slot(8, [&](std::size_t i) {
      ++runs[i];
      calls.fetch_add(1);
      if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    });
    // The helpers were queued behind busy workers: the caller ran every slot.
    EXPECT_EQ(runs, std::vector<int>(8, 1));
    EXPECT_EQ(off_caller.load(), 0u);
  }  // the workers resume here
  // Each worker takes one more task from the FIFO queue, and all must run at
  // once, so every entry queued before them — a helper left behind — has
  // been taken by then.
  const std::size_t workers = pool_workers();
  std::atomic<std::size_t> started{0};
  TaskGroup drain(workers, [&](std::size_t) {
    started.fetch_add(1);
    while (started.load() < workers) std::this_thread::yield();
  });
  for (std::size_t w = 0; w < workers; ++w) drain.release(w);
  while (started.load() < workers) std::this_thread::yield();
  for (std::size_t w = 0; w < workers; ++w) drain.join(w);
  EXPECT_EQ(calls.load(), 8u);
  EXPECT_EQ(off_caller.load(), 0u);
}

}  // namespace
}  // namespace ps360::util

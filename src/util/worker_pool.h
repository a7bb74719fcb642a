// The one worker pool: the evaluation grid, the tournament's cells, the
// fleet engine's speculative MPC solves and VideoWorkload construction run
// on it. Its resolve_thread_count() - 1
// workers start at the first call that can use a second thread; they and one
// calling thread are the thread budget, which PS360_THREADS set later caps per
// call but never resizes. Idle workers block. Joins are caller-runs, so a
// thread only waits on a task another thread runs: nested work neither
// deadlocks nor exceeds the budget.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

namespace ps360::util {

// The thread budget: PS360_THREADS when set (1 is the serial path), else the
// hardware concurrency. Throws std::invalid_argument naming the variable and
// its value when it is set to anything but a positive decimal integer.
std::size_t resolve_thread_count();

// Workers a call may use beside its own thread: 0 on a one-thread budget,
// which never starts the pool; else all of them, starting them if need be.
std::size_t pool_workers();

struct WorkerPool;  // worker_pool.cpp

// Tasks 0..size-1 on the pool, task i running run(i), which writes only what
// i owns. Every member but the destructor is for the thread owning the group.
// Make one only once pool_workers() is nonzero: a group starts the pool.
class TaskGroup {
 public:
  TaskGroup(std::size_t size, std::function<void(std::size_t)> run);
  // Drops the unclaimed tasks and waits for the running ones, also while
  // unwinding: then no worker touches the group or what `run` refers to.
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Queues a task. Throws std::invalid_argument, changing nothing, if it is
  // out of range or outstanding (released and not yet joined).
  void release(std::size_t task);
  // Waits for a released task, or runs it here if no worker claimed it; its
  // writes are then visible, and what it threw is rethrown. Throws
  // std::invalid_argument, changing nothing, if out of range or not outstanding.
  void join(std::size_t task);
  bool outstanding(std::size_t task) const;

 private:
  friend struct WorkerPool;
  enum class State : std::uint8_t { kIdle, kQueued, kRunning, kDone };
  struct Task {
    Task* prev = nullptr;  // queue links while kQueued; guarded by the pool
    Task* next = nullptr;
    TaskGroup* group = nullptr;
    // Changes under the pool's mutex but for a join's kDone -> kIdle; the
    // load that sees kDone is the join's happens-before edge.
    std::atomic<State> state{State::kIdle};
    std::exception_ptr error;  // thrown on a worker, rethrown by join
  };

  std::vector<Task> tasks_;
  std::function<void(std::size_t)> run_;
  WorkerPool* pool_;  // null for a group of no tasks
  // Signalled under the pool's mutex when a worker ends one of the tasks.
  std::condition_variable finished_;
};

// Runs fn(i) once for every slot i in [0, n) on at most
// min(resolve_thread_count(), pool_workers() + 1, n) threads, the caller
// included, which claim slots in ascending order; returns when the last
// claimed slot ends. fn(i) writes only slot i's state (anything else needs
// its own lock). After a throw no further slot starts, and the first
// exception thrown reaches the caller once the running slots end.
void for_each_slot(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace ps360::util

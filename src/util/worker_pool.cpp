#include "util/worker_pool.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>

#include "util/check.h"

namespace ps360::util {

struct WorkerPool {
  // Idle workers wait on their own condition variables, and a release wakes
  // the one idle last, so sparse work stays on few, warm workers.
  struct Worker {
    std::condition_variable wake;  // notified once `idle` is cleared, or at stop
    bool idle = false;             // on the idle stack; guarded by mu
  };

  static WorkerPool& instance() {
    static WorkerPool pool(resolve_thread_count() - 1);
    return pool;
  }

  explicit WorkerPool(std::size_t n) : workers(n) {
    for (Worker& worker : workers)
      threads.emplace_back([this, &worker](const std::stop_token& stop) { work(worker, stop); });
  }

  // Tries mu up to 64 times, yielding in between, before blocking: it guards
  // a few pointer writes, and blocking at once cost fleet-steady 14% of its
  // segments/s and 6% more CPU per segment (DESIGN.md §15).
  std::unique_lock<std::mutex> acquire() {
    for (int attempt = 0; attempt < 64; ++attempt) {
      if (mu.try_lock()) return std::unique_lock<std::mutex>(mu, std::adopt_lock);
      std::this_thread::yield();
    }
    return std::unique_lock<std::mutex>(mu);
  }

  // Takes a kQueued task off the queue; the caller holds mu.
  void unlink(TaskGroup::Task& task) {
    (task.prev != nullptr ? task.prev->next : head) = task.next;
    (task.next != nullptr ? task.next->prev : tail) = task.prev;
    task.prev = task.next = nullptr;
  }

  void work(Worker& me, const std::stop_token& stop) {
    // A stop request notifies under mu, so it cannot slip in between the
    // wait's check and its sleep.
    const std::stop_callback wake_at_stop(stop, [this, &me] {
      const std::lock_guard<std::mutex> lock(mu);
      me.wake.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    while (!stop.stop_requested()) {
      if (head == nullptr) {
        me.idle = true;
        idle.push_back(&me);
        me.wake.wait(lock, [&stop, &me] { return stop.stop_requested() || !me.idle; });
        continue;
      }
      TaskGroup::Task& task = *head;
      unlink(task);
      task.state = TaskGroup::State::kRunning;
      TaskGroup& group = *task.group;
      lock.unlock();
      try {
        group.run_(static_cast<std::size_t>(&task - group.tasks_.data()));
      } catch (...) {
        task.error = std::current_exception();
      }
      lock = acquire();
      task.state = TaskGroup::State::kDone;
      group.finished_.notify_one();
    }
  }

  // Guards the queue, the idle stack and every Task::state change but a
  // join's kDone -> kIdle. A task is claimed under it, by a worker's pop or a
  // join's unlink, so once, and it leaves no queue entry behind.
  std::mutex mu;
  std::vector<Worker> workers;
  std::vector<Worker*> idle;
  TaskGroup::Task* head = nullptr;
  TaskGroup::Task* tail = nullptr;
  // Last, so destroyed first, also when starting one throws: each jthread
  // stops its worker and joins it while the members above live.
  std::vector<std::jthread> threads;
};

std::size_t resolve_thread_count() {
  if (const char* env = std::getenv("PS360_THREADS")) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && value > 0)
      return static_cast<std::size_t>(value);
  }
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

std::size_t pool_workers() {
  return resolve_thread_count() > 1 ? WorkerPool::instance().threads.size() : 0;
}

TaskGroup::TaskGroup(std::size_t size, std::function<void(std::size_t)> run)
    : tasks_(size),
      run_(std::move(run)),
      pool_(size > 0 ? &WorkerPool::instance() : nullptr) {
  PS360_CHECK_MSG(run_ != nullptr, "need a task function");
  for (Task& task : tasks_) task.group = this;
}

TaskGroup::~TaskGroup() {
  if (pool_ == nullptr) return;  // no tasks
  std::unique_lock<std::mutex> lock(pool_->mu);
  for (Task& task : tasks_) {
    if (task.state == State::kQueued) {
      pool_->unlink(task);
      task.state = State::kIdle;
    }
  }
  finished_.wait(lock, [this] {
    return std::none_of(tasks_.begin(), tasks_.end(),
                        [](const Task& task) { return task.state == State::kRunning; });
  });
}

void TaskGroup::release(std::size_t task) {
  PS360_CHECK_MSG(task < tasks_.size(), "task " + std::to_string(task) + " out of range");
  Task& t = tasks_[task];
  PS360_CHECK_MSG(t.state == State::kIdle,
                  "task " + std::to_string(task) + " already has a release outstanding");
  const std::unique_lock<std::mutex> lock = pool_->acquire();
  t.state = State::kQueued;
  t.prev = pool_->tail;
  (pool_->tail != nullptr ? pool_->tail->next : pool_->head) = &t;
  pool_->tail = &t;
  if (!pool_->idle.empty()) {
    pool_->idle.back()->idle = false;
    pool_->idle.back()->wake.notify_one();
    pool_->idle.pop_back();
  }
}

void TaskGroup::join(std::size_t task) {
  PS360_CHECK_MSG(task < tasks_.size(), "task " + std::to_string(task) + " out of range");
  Task& t = tasks_[task];
  PS360_CHECK_MSG(t.state != State::kIdle,
                  "task " + std::to_string(task) + " has no release outstanding to join");
  if (t.state != State::kDone) {
    std::unique_lock<std::mutex> lock = pool_->acquire();
    if (t.state == State::kQueued) {  // caller-runs: it runs, and throws, here
      pool_->unlink(t);
      t.state = State::kIdle;
      lock.unlock();
      run_(task);
      return;
    }
    finished_.wait(lock, [&t] { return t.state == State::kDone; });
  }
  t.state = State::kIdle;
  if (t.error != nullptr) std::rethrow_exception(std::exchange(t.error, nullptr));
}

bool TaskGroup::outstanding(std::size_t task) const {
  PS360_CHECK_MSG(task < tasks_.size(), "task " + std::to_string(task) + " out of range");
  return tasks_[task].state != State::kIdle;
}

void for_each_slot(std::size_t n, const std::function<void(std::size_t)>& fn) {
  // Threads claim slots with fetch_add, so each slot is claimed once and slot
  // writes never race; a failing fn moves it to n.
  std::atomic<std::size_t> next_slot{0};
  // The first failure to set it keeps its exception; the joins publish it.
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  const auto claim_slots = [&](std::size_t) {
    try {
      for (std::size_t i = next_slot.fetch_add(1); i < n; i = next_slot.fetch_add(1))
        fn(i);
    } catch (...) {
      next_slot.store(n);
      if (!failed.exchange(true)) first_error = std::current_exception();
    }
  };
  // Helpers claim slots like the caller, which joins them all before it
  // returns; one no worker took runs here and finds no slot left.
  const std::size_t wanted = std::min(resolve_thread_count(), n);
  const std::size_t helpers = wanted > 1 ? std::min(wanted - 1, pool_workers()) : 0;
  TaskGroup group(helpers, claim_slots);
  for (std::size_t h = 0; h < helpers; ++h) group.release(h);
  claim_slots(0);
  for (std::size_t h = 0; h < helpers; ++h) group.join(h);
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace ps360::util

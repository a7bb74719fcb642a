// Worker pool for the fleet engine's speculative MPC solves.
//
// The engine assigns session i's solves to worker i % shards and keeps ALL
// shared-resource mutation — link rate updates, cache admissions, event
// scheduling, observability sinks — on the coordinator thread in event
// order. The only work that leaves the coordinator is the per-session
// planning solve (StreamingClient::finish_plan), which is a pure function
// of session-local state frozen at begin_plan() time; its observer
// emissions land in the session's obs::EmissionStage and are replayed by
// the coordinator after the join. Each shard owns one worker thread and a
// bounded FIFO of session ids; the coordinator dispatches a session's
// solve when a nonzero Eq. 6 wait starts and joins it when the flow-start
// event fires, so solves for many sessions overlap while the coordinator
// keeps draining events. A session with no wait is solved on the
// coordinator instead: there is nothing to overlap.
//
// Determinism: workers never touch shared state, a session's solve is
// always joined before any coordinator code reads its result, and at most
// one solve per session is ever outstanding (dispatch and wait check it) —
// so results are bit-identical for any shard count (the differential
// battery in tests/fleet_shard_test.cpp enforces this against the serial
// engine).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ps360::fleet {

class SolvePool {
 public:
  // Runs `solve(session)` for dispatched sessions on shard worker
  // `session % shards`. `solve` must be callable concurrently for distinct
  // sessions and must not touch shared mutable state. `sessions` bounds the
  // session ids (per-shard rings are preallocated to hold every session of
  // that shard, which suffices because at most one solve per session is
  // outstanding).
  SolvePool(std::size_t shards, std::size_t sessions,
            std::function<void(std::size_t)> solve);

  // Joins every worker. All dispatched solves run before destruction.
  ~SolvePool();

  SolvePool(const SolvePool&) = delete;
  SolvePool& operator=(const SolvePool&) = delete;

  std::size_t shards() const { return shards_.size(); }

  // Enqueue `session`'s solve on its shard worker. Coordinator thread only.
  // Throws std::invalid_argument, changing nothing, if the session is out of
  // range or already has a solve outstanding.
  void dispatch(std::size_t session);

  // Block until `session`'s dispatched solve has completed. Coordinator
  // thread only; pairs with exactly one prior dispatch(). After wait()
  // returns, everything the solve wrote is visible to the coordinator. An
  // exception thrown by the solve is rethrown here. Throws
  // std::invalid_argument, changing nothing, if the session is out of range
  // or has no solve outstanding.
  void wait(std::size_t session);

  // Whether `session` has been dispatched and not yet waited for.
  // Coordinator thread only.
  bool outstanding(std::size_t session) const;

 private:
  struct Shard {
    // Guards `ring`, `head`, `tail`, and `stop`; workers sleep on `cv` when
    // their ring is empty.
    std::mutex mu;
    // Signalled by dispatch() and the destructor under `mu`.
    std::condition_variable cv;
    std::vector<std::size_t> ring;  // FIFO of session ids, fixed capacity
    std::size_t head = 0;           // next slot to pop (mod ring.size())
    std::size_t tail = 0;           // next slot to push (mod ring.size())
    bool stop = false;              // set once by ~SolvePool under `mu`
    std::thread worker;
  };

  void worker_main(Shard& shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  // done_[session]: 0 while a dispatched solve is pending, 1 once it ran.
  // Written with release order by the worker, read with acquire order by
  // the coordinator's wait() — that pair is the happens-before edge carrying
  // the solve's writes back to the coordinator.
  std::vector<std::atomic<std::uint8_t>> done_;
  // errors_[session]: what the session's last solve threw, or null. Written
  // by the worker before its release store to done_, read by wait() after
  // the acquire load.
  std::vector<std::exception_ptr> errors_;
  // outstanding_[session]: dispatched and not yet waited for. Read and
  // written by the coordinator thread only, so it needs no synchronisation.
  std::vector<char> outstanding_;
  std::function<void(std::size_t)> solve_;
};

}  // namespace ps360::fleet

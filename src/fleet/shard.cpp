// SolvePool implementation: one worker thread per shard draining a bounded
// FIFO of session ids; a per-session done flag (release/acquire) carries the
// solve's writes back to the coordinator at join time.
#include "fleet/shard.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace ps360::fleet {

SolvePool::SolvePool(std::size_t shards, std::size_t sessions,
                     std::function<void(std::size_t)> solve)
    : done_(sessions),
      errors_(sessions),
      outstanding_(sessions, 0),
      solve_(std::move(solve)) {
  PS360_CHECK_MSG(shards >= 1, "need at least one shard worker");
  PS360_CHECK_MSG(sessions >= 1, "need at least one session");
  PS360_CHECK_MSG(solve_ != nullptr, "need a solve function");
  for (auto& flag : done_) flag.store(0, std::memory_order_relaxed);
  // Each shard's ring holds every session it owns: with at most one solve
  // outstanding per session, dispatch can never overrun it.
  const std::size_t per_shard = (sessions + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->ring.resize(per_shard);
    shards_.push_back(std::move(shard));
  }
  // Workers start only after every Shard exists (they touch only their own
  // slot, done_, errors_ and solve_, all fully constructed by now).
  for (auto& shard : shards_)
    shard->worker = std::thread(&SolvePool::worker_main, this, std::ref(*shard));
}

SolvePool::~SolvePool() {
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->stop = true;
    }
    shard->cv.notify_one();
  }
  for (auto& shard : shards_) shard->worker.join();
}

void SolvePool::dispatch(std::size_t session) {
  PS360_CHECK_MSG(session < done_.size(), "session out of range");
  PS360_CHECK_MSG(!outstanding_[session],
                  "session " + std::to_string(session) +
                      " already has a solve outstanding");
  outstanding_[session] = 1;
  Shard& shard = *shards_[session % shards_.size()];
  done_[session].store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    PS360_ASSERT_MSG(shard.tail - shard.head < shard.ring.size(),
                     "shard ring overrun: more than one outstanding solve "
                     "per session");
    shard.ring[shard.tail % shard.ring.size()] = session;
    ++shard.tail;
  }
  shard.cv.notify_one();
}

void SolvePool::wait(std::size_t session) {
  PS360_CHECK_MSG(session < done_.size(), "session out of range");
  PS360_CHECK_MSG(outstanding_[session],
                  "session " + std::to_string(session) +
                      " has no solve outstanding to wait for");
  // Solves are microseconds of DP; a yield-spin keeps the coordinator hot
  // and is bounded by the solve's own runtime (the worker was notified at
  // dispatch, so it is already running or about to).
  while (done_[session].load(std::memory_order_acquire) == 0)
    std::this_thread::yield();
  outstanding_[session] = 0;
  if (errors_[session] != nullptr)
    std::rethrow_exception(std::exchange(errors_[session], nullptr));
}

bool SolvePool::outstanding(std::size_t session) const {
  PS360_CHECK_MSG(session < outstanding_.size(), "session out of range");
  return outstanding_[session] != 0;
}

void SolvePool::worker_main(Shard& shard) {
  for (;;) {
    std::size_t session = 0;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock,
                    [&shard] { return shard.stop || shard.tail != shard.head; });
      if (shard.tail == shard.head) return;  // stop requested and drained
      session = shard.ring[shard.head % shard.ring.size()];
      ++shard.head;
    }
    try {
      solve_(session);
    } catch (...) {
      errors_[session] = std::current_exception();  // rethrown by wait()
    }
    done_[session].store(1, std::memory_order_release);
  }
}

}  // namespace ps360::fleet

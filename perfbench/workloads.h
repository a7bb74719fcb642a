// The benchmark's four workloads behind one interface: set up inputs from
// the seed, run the timed operation, run the serial reference it is checked
// against, and (traced run) measure the per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support.h"

namespace perfbench {

struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;         // toy sizes, same code paths
  std::size_t threads = 1;    // evaluation-grid worker threads (nproc)
  std::size_t shards = 1;     // fleet event-loop shards (nproc - 1)
};

// One operation's output reduced to what the check compares.
struct OpResult {
  std::uint64_t fingerprint = 0;  // exact bits of the simulated results
  std::size_t segments = 0;       // simulated segments, summed over sessions
  std::string violation;          // first failed balance; empty when balanced
};

// Simulated results of the reference run; deterministic per seed.
struct Outcome {
  double energy_j_per_session = 0.0;
  double qoe_mean = 0.0;
  double qoe_p5 = 0.0;  // 5th percentile: the bad tail
  double stall_ratio = 0.0;
  double energy_saving_vs_ctile_pct = 0.0;
};

// What the traced run knows from the generic part of the run.
struct LayerContext {
  double timed_wall_s = 0.0;  // median wall time of the timed operation
  double timed_cpu_s = 0.0;   // median CPU time of the timed operation
  MetricList* metrics = nullptr;  // per-layer metrics, every name preset to 0
  std::vector<std::string>* notes = nullptr;  // human-readable ledger lines
  std::size_t attempted = 0;  // extra checked operations (replays)
  std::size_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Build the inputs from the seed. Called several times; each call
  // replaces the previous inputs.
  virtual void setup() = 0;
  // The timed operation, at the workload's threads/shards.
  virtual OpResult run() = 0;
  // The serial reference (threads = shards = 1, observed where the API
  // allows), plus the simulated end-to-end results.
  virtual OpResult reference(Outcome& outcome) = 0;
  // Per-layer metrics; called after reference().
  virtual void trace_layers(LayerContext& context) = 0;
  // Sizes, threads and shards, for the result stamp.
  virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> make_workload(const Settings& settings);

}  // namespace perfbench

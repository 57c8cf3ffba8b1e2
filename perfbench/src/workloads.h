// The benchmark's workloads and the set-up shared by every run of them.
//
// All three are open-loop runs of engine::RunReallocatedStream with the
// account-state backend on: an offered load fixed per logical tick, the
// mempool between generator and engine, and epochs counted in ticks. They
// differ in which layer does the work (see README.md for why each exists):
//
//   hash-steady      hash allocator, large account domain, steady traffic:
//                    engine, state/Merkle and installs do nearly all work.
//   global-resolve   txallo-global, driver-sync: a full G-TxAllo re-solve
//                    blocks every epoch; the allocator dominates.
//   attack-overload  stress scenario, adaptive-only TxAllo in the
//                    background, tight balances and an overloaded,
//                    shedding mempool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "txallo/allocator/allocator.h"
#include "txallo/chain/ledger.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"
#include "txallo/workload/scenario_registry.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Scenario registry spec; the shape below (seeded per run) sizes it.
  std::string scenario;
  txallo::workload::ScenarioShape shape;
  std::string allocator;
  txallo::engine::AllocatorMode mode =
      txallo::engine::AllocatorMode::kDriverSync;
  /// λ per shard per tick; the whole system serves eight times this
  /// (every workload runs k = 8 shards).
  double capacity_per_tick = 0.0;
  txallo::engine::OpenLoopConfig open_loop;
  /// Engine worker threads. Workers + background allocator + mempool
  /// cleaner stay within the host's four cores.
  uint32_t engine_threads = 3;
};

/// The registered workloads, in the order BENCHMARK.json lists them.
const std::vector<Workload>& Workloads();

/// Null when `name` is not registered.
const Workload* FindWorkload(const std::string& name);

/// Everything a run needs before RunReallocatedStream starts: scenario,
/// ledger, allocator and a fresh engine. Built by SetUp(), whose wall time
/// is the benchmark's setup_s.
struct Setup {
  std::unique_ptr<txallo::workload::Scenario> scenario;
  txallo::chain::Ledger ledger;
  std::unique_ptr<txallo::allocator::Allocator> allocator;
  std::unique_ptr<txallo::engine::ParallelEngine> engine;
  txallo::engine::PipelineConfig pipeline;
  /// Wall seconds of the whole set-up and of GenerateLedger alone.
  double setup_seconds = 0.0;
  double generate_seconds = 0.0;
};

/// Builds a run's inputs from `seed`: the same seed gives the same ledger,
/// fee stream and allocator. Fails on an invalid spec.
txallo::Result<Setup> SetUp(const Workload& workload, uint64_t seed);

}  // namespace perfbench

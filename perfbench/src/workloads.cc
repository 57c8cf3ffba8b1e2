#include "workloads.h"

#include <utility>

#include "spans.h"
#include "txallo/alloc/params.h"
#include "txallo/allocator/registry.h"

namespace perfbench {

namespace {

using txallo::engine::AllocatorMode;

// Shared by every workload: shard count, cross-shard work factor η, and
// the epoch length in ticks (one rebalance per tick).
constexpr uint32_t kNumShards = 8;
constexpr double kEta = 2.0;
constexpr uint32_t kEpochTicks = 1;

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> workloads;

  // Offered load below hash's sustainable logical rate (88% of hash-routed
  // transactions are cross-shard at k = 8, about 3.6 work units each, and
  // the hub's shard carries the most) with the dispatch cap above it, so
  // the backlog stays bounded. Half a million accounts keep the working
  // set (~150 MB peak RSS) beyond a server's last-level cache.
  Workload hash;
  hash.name = "hash-steady";
  hash.scenario = "ethereum";
  hash.shape.num_accounts = 500'000;
  hash.shape.num_communities = 1'000;
  hash.shape.num_blocks = 120;
  hash.shape.txs_per_block = 1'000;
  hash.shape.initial_balance = 1'000'000;
  hash.allocator = "hash";
  hash.mode = AllocatorMode::kDriverSync;
  hash.capacity_per_tick = 1'250.0;
  hash.open_loop.offered_load = 1'000.0;
  hash.open_loop.dispatch_per_tick = 2'000;
  workloads.push_back(hash);

  // A blocking G-TxAllo re-solve at every epoch boundary. The graph stays
  // small enough to fit in cache, so the one-tick epochs give >= 100
  // re-solves per repetition. Engine capacity is ample: the run never
  // backlogs, and migration debt after a re-solve clears within a tick.
  Workload global;
  global.name = "global-resolve";
  global.scenario = "ethereum";
  global.shape.num_accounts = 20'000;
  global.shape.num_communities = 100;
  global.shape.num_blocks = 120;
  global.shape.txs_per_block = 100;
  global.shape.initial_balance = 1'000'000;
  global.allocator = "txallo-global";
  global.mode = AllocatorMode::kDriverSync;
  global.capacity_per_tick = 3'000.0;
  global.open_loop.offered_load = 100.0;
  global.open_loop.dispatch_per_tick = 200;
  workloads.push_back(global);

  // Shard attack + sybil fan-out + mint spike on one background, adaptive
  // A-TxAllo overlapped in the background. Offered load above the dispatch
  // cap, a bounded pool, a per-account pending limit and a TTL make the
  // mempool fill and shed; tight balances make 2PC aborts part of the run.
  Workload attack;
  attack.name = "attack-overload";
  attack.scenario = "stress";
  attack.shape.num_accounts = 200'000;
  attack.shape.num_communities = 400;
  attack.shape.num_blocks = 120;
  attack.shape.txs_per_block = 300;
  attack.shape.initial_balance = 48;
  attack.allocator = "txallo-hybrid:global-every=0";
  attack.mode = AllocatorMode::kBackground;
  attack.capacity_per_tick = 200.0;
  attack.open_loop.offered_load = 360.0;
  attack.open_loop.dispatch_per_tick = 300;
  attack.open_loop.mempool.capacity = 2'000;
  attack.open_loop.mempool.account_pending_limit = 4;
  attack.open_loop.mempool.ttl_ticks = 20;
  attack.engine_threads = 2;
  workloads.push_back(attack);

  return workloads;
}

// The engine a workload runs on: state backend on, funded like the ledger.
txallo::engine::EngineConfig EngineConfigFor(const Workload& workload,
                                             int64_t initial_balance) {
  txallo::engine::EngineConfig config;
  config.num_shards = kNumShards;
  config.work.eta = kEta;
  config.work.capacity_per_block = workload.capacity_per_tick;
  config.num_threads = workload.engine_threads;
  config.hash_route_unassigned = true;
  config.state.enabled = true;
  config.state.initial_balance = initial_balance;
  return config;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

txallo::Result<Setup> SetUp(const Workload& workload, uint64_t seed) {
  const Clock::time_point start = Clock::now();
  Setup setup;
  txallo::workload::ScenarioShape shape = workload.shape;
  shape.seed = seed;
  auto scenario =
      txallo::workload::MakeScenarioFromSpec(workload.scenario, shape);
  if (!scenario.ok()) return scenario.status();
  setup.scenario = std::move(scenario.value());

  const Clock::time_point generate_start = Clock::now();
  setup.ledger = setup.scenario->GenerateLedger(setup.scenario->num_blocks());
  setup.generate_seconds = SecondsBetween(generate_start, Clock::now());

  txallo::allocator::AllocatorOptions options;
  options.params = txallo::alloc::AllocationParams::ForExperiment(
      setup.ledger.num_transactions(), kNumShards, kEta);
  options.registry = &setup.scenario->registry();
  options.seed = seed;
  auto allocator =
      txallo::allocator::MakeAllocatorFromSpec(workload.allocator, options);
  if (!allocator.ok()) return allocator.status();
  setup.allocator = std::move(allocator.value());

  setup.engine = std::make_unique<txallo::engine::ParallelEngine>(
      EngineConfigFor(workload, setup.scenario->initial_balance()), nullptr);

  setup.pipeline.blocks_per_epoch = kEpochTicks;
  setup.pipeline.allocator_mode = workload.mode;
  setup.pipeline.ingest_mode = txallo::engine::IngestMode::kOpenLoop;
  setup.pipeline.open_loop = workload.open_loop;
  setup.pipeline.open_loop.fee_seed = seed ^ 0x9e3779b97f4a7c15ULL;
  setup.pipeline.workload_spec = setup.scenario->spec();
  setup.setup_seconds = SecondsBetween(start, Clock::now());
  return setup;
}

}  // namespace perfbench

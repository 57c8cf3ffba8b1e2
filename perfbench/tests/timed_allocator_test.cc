// The benchmark's allocator decorator must not change what it measures: a
// decorated run is bit-identical to an undecorated one for every registered
// online allocator, in both of the decorator's modes and under both the
// driver-sync and the background schedule. And the layer drives replay a
// captured run exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "drives.h"
#include "timed_allocator.h"
#include "txallo/allocator/registry.h"
#include "txallo/engine/pipeline.h"
#include "txallo/state/state_db.h"
#include "txallo/workload/scenario_registry.h"

namespace perfbench {
namespace {

using txallo::engine::AllocatorMode;
using txallo::engine::PipelineResult;

enum class Decoration { kNone, kDurations, kCapture };

struct Outcome {
  PipelineResult result;
  txallo::Sha256Digest root{};
  txallo::alloc::Allocation final_mapping;
};

// A small stress-scenario stream with tight balances (aborts), a bounded
// mempool (drops) and one-tick epochs, so every allocator rebalances often.
struct Fixture {
  std::unique_ptr<txallo::workload::Scenario> scenario;
  txallo::chain::Ledger ledger;

  Fixture() {
    txallo::workload::ScenarioShape shape;
    shape.num_blocks = 24;
    shape.txs_per_block = 60;
    shape.num_accounts = 1'500;
    shape.num_communities = 15;
    shape.initial_balance = 24;
    shape.seed = 7;
    auto made = txallo::workload::MakeScenarioFromSpec("stress", shape);
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    scenario = std::move(made.value());
    ledger = scenario->GenerateLedger(scenario->num_blocks());
  }

  std::unique_ptr<txallo::allocator::Allocator> MakeAllocator(
      const std::string& spec) const {
    txallo::allocator::AllocatorOptions options;
    options.params = txallo::alloc::AllocationParams::ForExperiment(
        ledger.num_transactions(), 4, 2.0);
    options.registry = &scenario->registry();
    auto made = txallo::allocator::MakeAllocatorFromSpec(spec, options);
    EXPECT_TRUE(made.ok()) << spec << ": " << made.status().ToString();
    return made.ok() ? std::move(made.value()) : nullptr;
  }

  txallo::engine::EngineConfig EngineConfig() const {
    txallo::engine::EngineConfig config;
    config.num_shards = 4;
    config.work.capacity_per_block = 12.0;
    config.num_threads = 2;
    config.hash_route_unassigned = true;
    config.state.enabled = true;
    config.state.initial_balance = scenario->initial_balance();
    return config;
  }

  txallo::engine::PipelineConfig Pipeline(AllocatorMode mode) const {
    txallo::engine::PipelineConfig pipeline;
    pipeline.blocks_per_epoch = 1;
    pipeline.allocator_mode = mode;
    pipeline.ingest_mode = txallo::engine::IngestMode::kOpenLoop;
    pipeline.open_loop.offered_load = 70.0;
    pipeline.open_loop.dispatch_per_tick = 60;
    pipeline.open_loop.mempool.capacity = 150;
    pipeline.open_loop.mempool.account_pending_limit = 3;
    pipeline.open_loop.mempool.ttl_ticks = 6;
    return pipeline;
  }

  Outcome Run(const std::string& spec, AllocatorMode mode,
              Decoration decoration,
              std::unique_ptr<TimedAllocator>* keep = nullptr) const {
    Outcome outcome;
    txallo::engine::ParallelEngine engine(EngineConfig(), nullptr);
    std::unique_ptr<txallo::allocator::Allocator> inner = MakeAllocator(spec);
    if (inner == nullptr) return outcome;
    std::unique_ptr<TimedAllocator> timed;
    txallo::allocator::OnlineAllocator* online = inner->AsOnline();
    if (decoration != Decoration::kNone) {
      timed = std::make_unique<TimedAllocator>(
          std::move(inner),
          decoration == Decoration::kCapture ? &engine : nullptr);
      online = timed->AsOnline();
    }
    auto result = txallo::engine::RunReallocatedStream(ledger, online, &engine,
                                                       Pipeline(mode));
    EXPECT_TRUE(result.ok()) << spec << ": " << result.status().ToString();
    if (!result.ok()) return outcome;
    outcome.result = std::move(result.value());
    outcome.root = engine.state()->GlobalRoot();
    outcome.final_mapping = online->CurrentAllocation();
    std::vector<std::string> failures;
    CheckRun(ledger, scenario->registry(), outcome.result, &engine, &failures);
    EXPECT_TRUE(failures.empty()) << spec << ": " << failures.front();
    if (keep != nullptr) *keep = std::move(timed);
    return outcome;
  }
};

// Wall-clock fields are measurements, not outputs; everything else must
// match bit for bit.
std::vector<txallo::engine::StepMetrics> LogicalSteps(
    std::vector<txallo::engine::StepMetrics> steps) {
  for (txallo::engine::StepMetrics& step : steps) {
    step.alloc_seconds = 0.0;
    step.alloc_wait_seconds = 0.0;
  }
  return steps;
}

void ExpectSameRun(const Outcome& expected, const Outcome& actual) {
  EXPECT_EQ(LogicalSteps(expected.result.steps),
            LogicalSteps(actual.result.steps));
  EXPECT_EQ(expected.result.accounts_moved, actual.result.accounts_moved);
  EXPECT_EQ(expected.result.epochs, actual.result.epochs);
  EXPECT_EQ(expected.result.admission, actual.result.admission);
  EXPECT_EQ(expected.result.e2e_latency_ticks,
            actual.result.e2e_latency_ticks);
  EXPECT_EQ(expected.root, actual.root);
  EXPECT_EQ(expected.final_mapping, actual.final_mapping);
}

TEST(TimedAllocatorTest, DecoratedRunIsBitIdenticalForEveryOnlineAllocator) {
  const Fixture fixture;
  size_t online = 0;
  for (const std::string& name : txallo::allocator::RegisteredNames()) {
    std::unique_ptr<txallo::allocator::Allocator> probe =
        fixture.MakeAllocator(name);
    ASSERT_NE(probe, nullptr);
    if (probe->AsOnline() == nullptr) continue;
    ++online;
    for (const AllocatorMode mode :
         {AllocatorMode::kDriverSync, AllocatorMode::kBackground}) {
      SCOPED_TRACE(name + " / " + txallo::engine::AllocatorModeName(mode));
      const Outcome plain = fixture.Run(name, mode, Decoration::kNone);
      ASSERT_FALSE(plain.result.steps.empty());
      ExpectSameRun(plain, fixture.Run(name, mode, Decoration::kDurations));
      ExpectSameRun(plain, fixture.Run(name, mode, Decoration::kCapture));
    }
  }
  EXPECT_GE(online, 2u);
}

TEST(TimedAllocatorTest, DurationModeTimesEveryCall) {
  const Fixture fixture;
  std::unique_ptr<TimedAllocator> sync;
  const Outcome sync_run = fixture.Run(
      "txallo-global", AllocatorMode::kDriverSync, Decoration::kDurations,
      &sync);
  ASSERT_NE(sync, nullptr);
  EXPECT_EQ(sync->timings().rebalance_s.size(), sync_run.result.epochs);
  EXPECT_TRUE(sync->timings().task_run_s.empty());
  EXPECT_TRUE(sync->rebalance_points().empty());
  EXPECT_TRUE(sync->installs().empty());

  std::unique_ptr<TimedAllocator> background;
  const Outcome background_run =
      fixture.Run("txallo-hybrid", AllocatorMode::kBackground,
                  Decoration::kDurations, &background);
  ASSERT_NE(background, nullptr);
  EXPECT_TRUE(background->timings().rebalance_s.empty());
  EXPECT_EQ(background->timings().task_run_s.size(),
            background_run.result.epochs);
  EXPECT_EQ(background->timings().snapshot_calls, background_run.result.epochs);
  EXPECT_EQ(background->timings().commit_calls, background_run.result.epochs);
  EXPECT_GT(background->timings().apply_block_calls, 0u);
}

// The traced run's layer drives, at test scale: each must reproduce the
// live run it was captured from.
TEST(TimedAllocatorTest, LayerDrivesReproduceTheCapturedRun) {
  const Fixture fixture;
  for (const auto& [spec, mode] :
       std::vector<std::pair<std::string, AllocatorMode>>{
           {"hash", AllocatorMode::kDriverSync},
           {"txallo-global", AllocatorMode::kDriverSync},
           {"txallo-hybrid:global-every=0", AllocatorMode::kBackground},
           {"txallo-hybrid:global-every=3", AllocatorMode::kBackground}}) {
    SCOPED_TRACE(spec);
    std::unique_ptr<TimedAllocator> timed;
    // The bootstrap mapping is what a fresh allocator reports.
    const txallo::alloc::Allocation bootstrap =
        fixture.MakeAllocator(spec)->AsOnline()->CurrentAllocation();
    const Outcome live = fixture.Run(spec, mode, Decoration::kCapture, &timed);
    ASSERT_NE(timed, nullptr);

    const txallo::engine::PipelineConfig pipeline = fixture.Pipeline(mode);
    MempoolDrive mempool =
        DriveMempool(fixture.ledger, pipeline.open_loop, 1, nullptr);
    EXPECT_EQ(mempool.stats, live.result.admission);

    auto engine = DriveEngine(fixture.EngineConfig(), mempool.batches,
                              bootstrap, timed->installs(), 1, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(engine->root, live.root);
    EXPECT_EQ(engine->report.sim.committed, live.result.report.sim.committed);
    EXPECT_EQ(engine->report.aborted, live.result.report.aborted);
    EXPECT_EQ(engine->report.accounts_migrated,
              live.result.report.accounts_migrated);

    const std::optional<uint32_t> every = TxAlloGlobalEvery(spec);
    if (!every.has_value()) continue;
    auto core = DriveCore(&fixture.scenario->registry(),
                          timed->online_params(), *every, mempool.batches,
                          timed->rebalance_points(), nullptr);
    ASSERT_TRUE(core.ok()) << core.status().ToString();
    EXPECT_EQ(core->final_mapping, live.final_mapping);
    EXPECT_EQ(core->global_calls + core->adaptive_calls,
              live.result.epochs);
  }
}

}  // namespace
}  // namespace perfbench

#include "drives.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "txallo/allocator/registry.h"
#include "txallo/core/controller.h"
#include "txallo/mempool/cleaner.h"
#include "txallo/mempool/mempool.h"
#include "txallo/mempool/offered_load.h"
#include "txallo/state/state_db.h"

namespace perfbench {

using txallo::Result;
using txallo::Status;

// Mirrors the open-loop driver in engine/pipeline.cc call for call: the same
// staging capacity rule, generator, submit/seal/take order, dispatch cap
// and termination condition. The mempool never sees the engine, so the
// dispatched stream is a function of these calls alone.
MempoolDrive DriveMempool(const txallo::chain::Ledger& ledger,
                          const txallo::engine::OpenLoopConfig& open_loop,
                          uint32_t epoch_ticks, std::vector<Span>* spans) {
  MempoolDrive drive;
  txallo::mempool::MempoolConfig pool_config = open_loop.mempool;
  const size_t tick_offer =
      static_cast<size_t>(std::ceil(open_loop.offered_load)) + 1;
  pool_config.staging_capacity =
      std::max(pool_config.staging_capacity, tick_offer);
  txallo::mempool::Mempool pool(pool_config);
  std::optional<txallo::mempool::MempoolCleaner> cleaner;
  if (open_loop.cleaner) cleaner.emplace(&pool);
  txallo::mempool::OfferedLoadGenerator generator(
      ledger, txallo::mempool::OfferedLoadConfig{
                  open_loop.offered_load, open_loop.fee_levels,
                  open_loop.fee_seed});
  const size_t cap = open_loop.dispatch_per_tick == 0
                         ? std::numeric_limits<size_t>::max()
                         : open_loop.dispatch_per_tick;

  std::vector<txallo::mempool::OfferedTx> released;
  for (uint64_t now = 0;
       !(generator.Done() && pool.live_size() == 0 &&
         pool.deferred_size() == 0 && pool.staged_size() == 0);
       ++now) {
    const uint64_t epoch = now / epoch_ticks;
    {
      ScopedSpan span(spans, "mempool", "ReleaseTick+TrySubmit", epoch, 2,
                      &drive.submit_s);
      released.clear();
      generator.ReleaseTick(&released);
      if (!released.empty()) {
        const uint64_t seq_base = pool.ReserveSequenceRange(released.size());
        for (size_t i = 0; i < released.size(); ++i) {
          pool.TrySubmit(*released[i].tx, released[i].fee, now, seq_base + i);
        }
      }
    }
    {
      ScopedSpan span(spans, "mempool", "SealTick", epoch, 2, &drive.seal_s);
      pool.SealTick(now);
    }
    std::vector<txallo::mempool::PendingTx> batch;
    {
      ScopedSpan span(spans, "mempool", "TakeBatch", epoch, 2, &drive.take_s);
      batch = pool.TakeBatch(cap);
    }
    std::vector<txallo::chain::Transaction> block;
    block.reserve(batch.size());
    for (txallo::mempool::PendingTx& pending : batch) {
      block.push_back(std::move(pending.tx));
    }
    drive.batches.push_back(std::move(block));
  }
  drive.stats = pool.stats();
  return drive;
}

// Replays the engine side of the live run: installs land before the first
// submission of the block they were published at (block 0 is the
// bootstrap), exactly where the pipeline published them. A capture stamped
// after the last dispatched tick was never installed live (the trailing
// window gets no update) and is skipped here too.
Result<EngineDrive> DriveEngine(
    const txallo::engine::EngineConfig& config,
    const std::vector<std::vector<txallo::chain::Transaction>>& batches,
    const txallo::alloc::Allocation& bootstrap,
    const std::vector<CapturedInstall>& installs, uint32_t epoch_ticks,
    std::vector<Span>* spans) {
  EngineDrive drive;
  txallo::engine::ParallelEngine engine(config, nullptr);
  engine.EnableCommitObservation();
  Status installed = engine.InstallAllocation(
      std::make_shared<const txallo::alloc::Allocation>(bootstrap));
  if (!installed.ok()) return installed;
  InstallReplayer replayer(&installs);
  for (uint64_t tick = 0; tick < batches.size(); ++tick) {
    bool install_tick = false;
    while (!replayer.Done() && replayer.next_block() <= tick) {
      installed = engine.InstallAllocation(
          std::make_shared<const txallo::alloc::Allocation>(
              replayer.Next()));
      if (!installed.ok()) return installed;
      install_tick = true;
    }
    const uint64_t epoch = tick / epoch_ticks;
    Status submitted;
    {
      ScopedSpan span(spans, "engine", "SubmitBlock", epoch, 2,
                      &drive.submit_s);
      submitted = engine.SubmitBlock(batches[tick]);
    }
    if (!submitted.ok()) return submitted;
    const double tick_s_before = drive.tick_s;
    {
      ScopedSpan span(spans, "engine", install_tick ? "Tick(install)" : "Tick",
                      epoch, 2, &drive.tick_s);
      engine.Tick();
    }
    const double seconds = drive.tick_s - tick_s_before;
    drive.tick_us.push_back(seconds * 1e6);
    if (install_tick) drive.install_tick_s += seconds;
    engine.TakeObservedCommits();
  }
  {
    ScopedSpan span(spans, "engine", "DrainAndReport",
                    batches.size() / epoch_ticks, 2, &drive.tick_s);
    drive.report = engine.DrainAndReport();
  }
  if (engine.state() != nullptr) drive.root = engine.state()->GlobalRoot();
  return drive;
}

std::optional<uint32_t> TxAlloGlobalEvery(const std::string& allocator_spec) {
  Result<txallo::allocator::AllocatorSpec> spec =
      txallo::allocator::ParseAllocatorSpec(allocator_spec);
  if (!spec.ok()) return std::nullopt;
  if (spec->name == "txallo-global") return 1;
  if (spec->name != "txallo-hybrid") return std::nullopt;
  const auto every = spec->options.find("global-every");
  if (every == spec->options.end()) return 0;
  return static_cast<uint32_t>(std::stoul(every->second));
}

// The same schedule TxAlloAllocator runs: a rebalance point with nothing
// absorbed is a no-op; otherwise the first step and every
// `global_every`-th are G-TxAllo, the rest A-TxAllo. Blocks absorbed while
// a background task ran come after its rebalance point, which is the order
// the task's Commit() folds them in.
Result<CoreDrive> DriveCore(
    const txallo::chain::AccountRegistry* registry,
    const txallo::alloc::AllocationParams& params, uint32_t global_every,
    const std::vector<std::vector<txallo::chain::Transaction>>& batches,
    const std::vector<uint64_t>& rebalance_points, std::vector<Span>* spans) {
  CoreDrive drive;
  txallo::core::TxAlloController controller(registry, params);
  uint64_t rebalances = 0;
  uint64_t absorbed = 0;
  for (const uint64_t point : rebalance_points) {
    for (; absorbed < point && absorbed < batches.size(); ++absorbed) {
      controller.ApplyBlock(txallo::chain::Block(absorbed, batches[absorbed]));
    }
    if (controller.transactions_applied() == 0) continue;
    ++rebalances;
    const bool global =
        rebalances == 1 || (global_every > 0 && rebalances % global_every == 0);
    if (global) {
      std::optional<Result<txallo::core::GlobalRunInfo>> run;
      {
        ScopedSpan span(spans, "core", "StepGlobal", rebalances - 1, 2,
                        &drive.global_s);
        run.emplace(controller.StepGlobal());
      }
      const Result<txallo::core::GlobalRunInfo>& info = *run;
      if (!info.ok()) return info.status();
      ++drive.global_calls;
      drive.louvain_s += info->louvain_seconds;
      drive.init_s += info->init_seconds;
      drive.optimize_s += info->optimize_seconds;
      drive.global_sweeps += static_cast<uint64_t>(info->sweeps);
      drive.louvain_communities += info->louvain_communities;
    } else {
      std::optional<Result<txallo::core::AdaptiveRunInfo>> run;
      {
        ScopedSpan span(spans, "core", "StepAdaptive", rebalances - 1, 2,
                        &drive.adaptive_s);
        run.emplace(controller.StepAdaptive());
      }
      const Result<txallo::core::AdaptiveRunInfo>& info = *run;
      if (!info.ok()) return info.status();
      ++drive.adaptive_calls;
      drive.adaptive_sweeps += static_cast<uint64_t>(info->sweeps);
      drive.touched_nodes += info->touched_nodes;
    }
  }
  for (; absorbed < batches.size(); ++absorbed) {
    controller.ApplyBlock(txallo::chain::Block(absorbed, batches[absorbed]));
  }
  drive.final_mapping = controller.allocation();
  return drive;
}

}  // namespace perfbench

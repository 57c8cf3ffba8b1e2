// Layer drives of the traced run. Each one replays the inputs one layer saw
// in the live pipeline run, calling only that layer's public API, and times
// every call from outside. Each is checked against the live run before its
// numbers count:
//
//   mempool  OfferedLoadGenerator::ReleaseTick -> Mempool::TrySubmit ->
//            SealTick -> TakeBatch(cap), exactly as the open-loop driver
//            calls them; its AdmissionStats must equal the live run's. The
//            per-tick batches it dispatches feed the engine drive.
//   engine   a fresh ParallelEngine fed those batches via SubmitBlock/Tick,
//            with the live run's installs re-applied at their blocks; its
//            final Merkle root and committed count must equal the live
//            run's. Run again with the state backend off to price it.
//   core     a TxAlloController fed the same per-tick blocks, stepping at
//            the allocator's rebalance points and global/adaptive cadence;
//            its final mapping must equal the allocator's.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spans.h"
#include "timed_allocator.h"
#include "txallo/alloc/allocation.h"
#include "txallo/alloc/params.h"
#include "txallo/chain/account.h"
#include "txallo/chain/ledger.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"

namespace perfbench {

struct MempoolDrive {
  /// ReleaseTick + TrySubmit, SealTick and TakeBatch wall times.
  double submit_s = 0.0;
  double seal_s = 0.0;
  double take_s = 0.0;
  txallo::mempool::AdmissionStats stats;
  /// What TakeBatch dispatched at each tick.
  std::vector<std::vector<txallo::chain::Transaction>> batches;
};

MempoolDrive DriveMempool(const txallo::chain::Ledger& ledger,
                          const txallo::engine::OpenLoopConfig& open_loop,
                          uint32_t epoch_ticks, std::vector<Span>* spans);

struct EngineDrive {
  double submit_s = 0.0;
  /// Tick() and the final DrainAndReport().
  double tick_s = 0.0;
  /// The part of tick_s spent in the first tick after each install, where
  /// the residency migration runs.
  double install_tick_s = 0.0;
  /// Wall time of every Tick(), microseconds.
  std::vector<double> tick_us;
  txallo::engine::EngineReport report;
  txallo::Sha256Digest root{};
};

/// `spans` may be null.
txallo::Result<EngineDrive> DriveEngine(
    const txallo::engine::EngineConfig& config,
    const std::vector<std::vector<txallo::chain::Transaction>>& batches,
    const txallo::alloc::Allocation& bootstrap,
    const std::vector<CapturedInstall>& installs, uint32_t epoch_ticks,
    std::vector<Span>* spans);

struct CoreDrive {
  uint64_t global_calls = 0;
  double global_s = 0.0;
  double louvain_s = 0.0;
  double init_s = 0.0;
  double optimize_s = 0.0;
  uint64_t global_sweeps = 0;
  uint64_t louvain_communities = 0;
  uint64_t adaptive_calls = 0;
  double adaptive_s = 0.0;
  uint64_t adaptive_sweeps = 0;
  uint64_t touched_nodes = 0;
  txallo::alloc::Allocation final_mapping;
};

/// The global-refresh cadence of a TxAllo allocator spec (every rebalance
/// for txallo-global, `global-every` for txallo-hybrid), or nullopt for a
/// strategy that does not run the TxAllo controller.
std::optional<uint32_t> TxAlloGlobalEvery(const std::string& allocator_spec);

/// `batches[t]` is the block the allocator absorbed at tick t;
/// `rebalance_points` come from TimedAllocator::rebalance_points().
txallo::Result<CoreDrive> DriveCore(
    const txallo::chain::AccountRegistry* registry,
    const txallo::alloc::AllocationParams& params, uint32_t global_every,
    const std::vector<std::vector<txallo::chain::Transaction>>& batches,
    const std::vector<uint64_t>& rebalance_points, std::vector<Span>* spans);

}  // namespace perfbench

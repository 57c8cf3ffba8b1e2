// A forwarding decorator around any registered allocator: every call goes
// straight to the wrapped strategy, and the decorator times it from the
// outside. This is how the benchmark measures the allocator layer without
// touching the library.
//
// Two modes:
//   * durations (no clock engine given): keeps only per-call wall times —
//     what the untraced run reports as rebalance_p50_ms / rebalance_p90_ms;
//   * capture (a clock engine given): additionally records a span per
//     call, where the rebalance points fell in the stream of absorbed
//     blocks (the core-layer drive replays them), and every mapping the
//     pipeline is about to install, stamped with the engine block it takes
//     effect from (the engine-layer drive re-applies them). It keeps no
//     copy of the blocks: the mempool drive reproduces them.
//
// Neither mode changes what the wrapped strategy computes; the
// equivalence test pins a decorated run bit-identical to an undecorated
// one for every registered online allocator.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "spans.h"
#include "txallo/alloc/allocation.h"
#include "txallo/allocator/allocator.h"
#include "txallo/chain/block.h"
#include "txallo/engine/engine.h"

namespace perfbench {

/// Wall times of the calls into the allocator layer.
struct AllocatorTimings {
  /// One entry per OnlineAllocator::Rebalance() (the driver-sync schedule).
  std::vector<double> rebalance_s;
  /// One entry per RebalanceTask::Run() (the background schedule), taken
  /// on the worker thread and handed over at Commit().
  std::vector<double> task_run_s;
  double apply_block_s = 0.0;
  uint64_t apply_block_calls = 0;
  /// OnlineAllocator::BeginRebalance(): the driver-blocking snapshot.
  double snapshot_s = 0.0;
  uint64_t snapshot_calls = 0;
  /// RebalanceTask::Commit(): the driver-blocking fold-back.
  double commit_s = 0.0;
  uint64_t commit_calls = 0;
};

/// A mapping handed to the engine, as a delta against the previous capture.
struct CapturedInstall {
  /// Engine block from which the mapping routes (engine->current_block()
  /// when the pipeline published it).
  uint64_t block = 0;
  size_t num_accounts = 0;
  uint32_t num_shards = 0;
  std::vector<std::pair<txallo::chain::AccountId, txallo::alloc::ShardId>>
      changed;
};

class TimedAllocator final : public txallo::allocator::OnlineAllocator {
 public:
  /// Wraps `inner`, which must be online-capable. A non-null
  /// `capture_clock` selects capture mode; it must outlive the run.
  explicit TimedAllocator(
      std::unique_ptr<txallo::allocator::Allocator> inner,
      const txallo::engine::ParallelEngine* capture_clock = nullptr);

  OnlineAllocator* AsOnline() override {
    return inner_->AsOnline() != nullptr ? this : nullptr;
  }
  txallo::Result<txallo::alloc::Allocation> Allocate(
      const txallo::allocator::AllocationContext& context) override {
    return inner_->Allocate(context);
  }
  txallo::Result<txallo::alloc::EvaluationReport> Evaluate(
      const txallo::chain::Ledger& ledger,
      const txallo::alloc::Allocation& allocation,
      const txallo::alloc::AllocationParams& params) const override {
    return inner_->Evaluate(ledger, allocation, params);
  }
  txallo::Result<txallo::alloc::EvaluationReport> Evaluate(
      const std::vector<txallo::chain::Transaction>& transactions,
      const txallo::alloc::Allocation& allocation,
      const txallo::alloc::AllocationParams& params) const override {
    return inner_->Evaluate(transactions, allocation, params);
  }
  txallo::alloc::Allocation CurrentAllocation() const override {
    return online_->CurrentAllocation();
  }

  void ApplyBlock(const txallo::chain::Block& block) override;
  txallo::Result<txallo::alloc::Allocation> Rebalance() override;
  std::unique_ptr<txallo::allocator::RebalanceTask> BeginRebalance() override;

  const AllocatorTimings& timings() const { return timings_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// For each rebalance point (Rebalance(), or the BeginRebalance()
  /// snapshot), the number of ApplyBlock() calls before it.
  const std::vector<uint64_t>& rebalance_points() const {
    return rebalance_points_;
  }
  const std::vector<CapturedInstall>& installs() const { return installs_; }

 private:
  class TimedTask;
  bool capturing() const { return clock_ != nullptr; }
  void CaptureInstall(const txallo::alloc::Allocation& mapping);

  std::unique_ptr<txallo::allocator::Allocator> inner_;
  txallo::allocator::OnlineAllocator* online_;
  const txallo::engine::ParallelEngine* clock_;
  AllocatorTimings timings_;
  // Rebalance points so far; spans carry the epoch they belong to.
  uint64_t epoch_ = 0;
  std::vector<Span> spans_;
  std::vector<uint64_t> rebalance_points_;
  std::vector<CapturedInstall> installs_;
  std::vector<txallo::alloc::ShardId> last_install_;
};

/// Rebuilds the captured mappings one at a time, in capture order (the
/// inverse of the delta encoding). Holds one full mapping, never all.
class InstallReplayer {
 public:
  explicit InstallReplayer(const std::vector<CapturedInstall>* installs)
      : installs_(installs) {}

  bool Done() const { return cursor_ >= installs_->size(); }
  /// Block of the next mapping. Precondition: !Done().
  uint64_t next_block() const { return (*installs_)[cursor_].block; }
  /// The next mapping. Precondition: !Done().
  txallo::alloc::Allocation Next();

 private:
  const std::vector<CapturedInstall>* installs_;
  size_t cursor_ = 0;
  std::vector<txallo::alloc::ShardId> shard_of_;
};

}  // namespace perfbench

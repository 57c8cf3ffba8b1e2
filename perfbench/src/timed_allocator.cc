#include "timed_allocator.h"

#include <cstdio>
#include <cstdlib>
#include <optional>

namespace perfbench {

using txallo::Result;
using txallo::Status;
using txallo::alloc::Allocation;

// The task decorator. Run() may execute on the pipeline's background worker
// while the parent keeps absorbing blocks on the owner thread, so Run()
// writes only this object; Commit() (owner thread) hands the measurements
// to the parent.
class TimedAllocator::TimedTask final
    : public txallo::allocator::RebalanceTask {
 public:
  TimedTask(TimedAllocator* parent,
            std::unique_ptr<txallo::allocator::RebalanceTask> inner,
            uint64_t epoch)
      : parent_(parent), inner_(std::move(inner)), epoch_(epoch) {}

  Result<Allocation> Run() override {
    std::optional<ScopedSpan> span;
    span.emplace(&run_span_, "allocator", "RebalanceTask::Run", epoch_, 1,
                 &run_seconds_);
    Result<Allocation> mapping = inner_->Run();
    span.reset();
    if (parent_->capturing() && mapping.ok()) mapping_ = *mapping;
    return mapping;
  }

  Status Commit() override {
    Status status;
    {
      ScopedSpan span(parent_->capturing() ? &parent_->spans_ : nullptr,
                      "allocator", "RebalanceTask::Commit", epoch_, 1,
                      &parent_->timings_.commit_s);
      status = inner_->Commit();
    }
    ++parent_->timings_.commit_calls;
    parent_->timings_.task_run_s.push_back(run_seconds_);
    if (parent_->capturing()) {
      parent_->spans_.insert(parent_->spans_.end(), run_span_.begin(),
                             run_span_.end());
      if (status.ok() && mapping_.has_value()) {
        parent_->CaptureInstall(*mapping_);
      }
    }
    return status;
  }

 private:
  TimedAllocator* const parent_;
  const std::unique_ptr<txallo::allocator::RebalanceTask> inner_;
  const uint64_t epoch_;
  double run_seconds_ = 0.0;
  std::vector<Span> run_span_;
  std::optional<Allocation> mapping_;
};

namespace {

txallo::allocator::OnlineAllocator* RequireOnline(
    txallo::allocator::Allocator* inner) {
  txallo::allocator::OnlineAllocator* online =
      inner == nullptr ? nullptr : inner->AsOnline();
  if (online == nullptr) {
    std::fprintf(stderr, "TimedAllocator: '%s' is not an online allocator\n",
                 inner == nullptr ? "(null)" : inner->Name().c_str());
    std::abort();
  }
  return online;
}

}  // namespace

TimedAllocator::TimedAllocator(
    std::unique_ptr<txallo::allocator::Allocator> inner,
    const txallo::engine::ParallelEngine* capture_clock)
    : OnlineAllocator(inner->Name(),
                      RequireOnline(inner.get())->online_params()),
      inner_(std::move(inner)),
      online_(inner_->AsOnline()),
      clock_(capture_clock) {}

void TimedAllocator::ApplyBlock(const txallo::chain::Block& block) {
  {
    ScopedSpan span(capturing() ? &spans_ : nullptr, "allocator",
                    "ApplyBlock", epoch_, 1, &timings_.apply_block_s);
    online_->ApplyBlock(block);
  }
  ++timings_.apply_block_calls;
}

Result<Allocation> TimedAllocator::Rebalance() {
  if (capturing()) rebalance_points_.push_back(timings_.apply_block_calls);
  const Clock::time_point start = Clock::now();
  Result<Allocation> mapping = online_->Rebalance();
  const Clock::time_point end = Clock::now();
  timings_.rebalance_s.push_back(SecondsBetween(start, end));
  if (capturing()) {
    spans_.push_back(Span{"allocator", "Rebalance", std::this_thread::get_id(),
                          start, end, epoch_, 1});
    // The driver-sync schedule installs what Rebalance() returns, at once.
    if (mapping.ok()) CaptureInstall(*mapping);
  }
  ++epoch_;
  return mapping;
}

std::unique_ptr<txallo::allocator::RebalanceTask>
TimedAllocator::BeginRebalance() {
  std::unique_ptr<txallo::allocator::RebalanceTask> task;
  {
    ScopedSpan span(capturing() ? &spans_ : nullptr, "allocator",
                    "BeginRebalance", epoch_, 1, &timings_.snapshot_s);
    task = online_->BeginRebalance();
  }
  ++timings_.snapshot_calls;
  // A strategy that cannot snapshot makes the pipeline fall back to
  // Rebalance(), which records its own rebalance point.
  if (task == nullptr) return nullptr;
  if (capturing()) rebalance_points_.push_back(timings_.apply_block_calls);
  return std::make_unique<TimedTask>(this, std::move(task), epoch_++);
}

void TimedAllocator::CaptureInstall(const Allocation& mapping) {
  CapturedInstall install;
  install.block = clock_->current_block();
  install.num_accounts = mapping.num_accounts();
  install.num_shards = mapping.num_shards();
  const std::vector<txallo::alloc::ShardId>& next = mapping.raw();
  for (size_t a = 0; a < next.size(); ++a) {
    const txallo::alloc::ShardId previous =
        a < last_install_.size() ? last_install_[a]
                                 : txallo::alloc::kUnassignedShard;
    if (next[a] != previous) {
      install.changed.emplace_back(static_cast<txallo::chain::AccountId>(a),
                                   next[a]);
    }
  }
  last_install_ = next;
  installs_.push_back(std::move(install));
}

Allocation InstallReplayer::Next() {
  const CapturedInstall& install = (*installs_)[cursor_++];
  shard_of_.resize(install.num_accounts, txallo::alloc::kUnassignedShard);
  for (const auto& [account, shard] : install.changed) {
    shard_of_[account] = shard;
  }
  Allocation mapping(shard_of_.size(), install.num_shards);
  for (size_t a = 0; a < shard_of_.size(); ++a) {
    if (shard_of_[a] != txallo::alloc::kUnassignedShard) {
      mapping.Assign(static_cast<txallo::chain::AccountId>(a), shard_of_[a]);
    }
  }
  return mapping;
}

}  // namespace perfbench

// Per-run correctness checks. A run that fails any of them counts as
// failed and its numbers are not reported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "txallo/chain/account.h"
#include "txallo/chain/ledger.h"
#include "txallo/common/histogram.h"
#include "txallo/common/sha256.h"
#include "txallo/engine/engine.h"
#include "txallo/engine/pipeline.h"

namespace perfbench {

/// Admission drops of every reason (TTL expiries excluded).
uint64_t DroppedOf(const txallo::mempool::AdmissionStats& admission);

/// Checks a finished open-loop run, appending one line per violation:
///   * every offered transaction has exactly one fate — offered =
///     committed + aborted + dropped + expired — and nothing is left in
///     the mempool or in flight in the engine after the drain;
///   * balances are conserved: the committed balances sum to funded
///     accounts x initial balance;
///   * every account with a residency lives in exactly the shard DB its
///     residency names (and no record exists without one).
void CheckRun(const txallo::chain::Ledger& ledger,
              const txallo::chain::AccountRegistry& registry,
              const txallo::engine::PipelineResult& result,
              txallo::engine::ParallelEngine* engine,
              std::vector<std::string>* failures);

/// The logical outcome of a run: identical across repetitions of one
/// workload and seed, whatever the thread timing.
struct Fingerprint {
  txallo::Sha256Digest root{};
  uint64_t committed = 0;
  uint64_t cross_shard_submitted = 0;
  uint64_t accounts_moved = 0;
  txallo::common::Histogram latency;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const txallo::engine::PipelineResult& result,
                          txallo::engine::ParallelEngine* engine);

}  // namespace perfbench

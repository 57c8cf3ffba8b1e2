#include "checks.h"

#include "txallo/state/state_db.h"

namespace perfbench {

namespace {

std::string Count(const char* name, uint64_t value) {
  return std::string(name) + "=" + std::to_string(value);
}

}  // namespace

uint64_t DroppedOf(const txallo::mempool::AdmissionStats& admission) {
  return admission.dropped_capacity + admission.dropped_account_pending +
         admission.dropped_account_rate + admission.dropped_backpressure;
}

void CheckRun(const txallo::chain::Ledger& ledger,
              const txallo::chain::AccountRegistry& registry,
              const txallo::engine::PipelineResult& result,
              txallo::engine::ParallelEngine* engine,
              std::vector<std::string>* failures) {
  const txallo::mempool::AdmissionStats& admission = result.admission;
  const txallo::sim::SimReport& sim = result.report.sim;
  const uint64_t offered = ledger.num_transactions();
  const uint64_t dropped = DroppedOf(admission);
  const uint64_t fates =
      sim.committed + result.report.aborted + dropped + admission.expired;
  if (admission.submitted != offered || fates != offered) {
    failures->push_back("fate: " + Count("offered", offered) + " " +
                        Count("submitted_to_pool", admission.submitted) +
                        " " + Count("committed", sim.committed) + " " +
                        Count("aborted", result.report.aborted) + " " +
                        Count("dropped", dropped) + " " +
                        Count("expired", admission.expired));
  }
  if (sim.submitted != sim.committed + result.report.aborted ||
      admission.admitted != sim.submitted + admission.expired) {
    failures->push_back("in flight after drain: " +
                        Count("admitted", admission.admitted) + " " +
                        Count("dispatched", sim.submitted) + " " +
                        Count("decided",
                              sim.committed + result.report.aborted));
  }

  const txallo::state::StateDb* state = engine->state();
  if (state == nullptr) {
    failures->push_back("state backend is off");
    return;
  }
  // One pass over the account domain: sum the committed balances, and check
  // that each resident account's record sits in the shard its residency
  // names. With the record totals equal, no account can hold a second
  // record anywhere.
  int64_t balance_sum = 0;
  uint64_t funded = 0;
  uint64_t misplaced = 0;
  for (txallo::chain::AccountId a = 0; a < registry.size(); ++a) {
    const uint32_t shard = state->ResidencyOf(a);
    const txallo::state::AccountState* record = state->Find(a);
    if (shard == txallo::state::StateDb::kNoShard) {
      if (record != nullptr) ++misplaced;
      continue;
    }
    if (record == nullptr || shard >= state->num_shards() ||
        !state->shard(shard).Contains(a)) {
      ++misplaced;
      continue;
    }
    ++funded;
    balance_sum += record->balance;
  }
  uint64_t records = 0;
  for (uint32_t s = 0; s < state->num_shards(); ++s) {
    records += state->shard(s).num_accounts();
  }
  if (misplaced != 0 || records != funded) {
    failures->push_back("residency: " + Count("misplaced", misplaced) + " " +
                        Count("resident_accounts", funded) + " " +
                        Count("records", records));
  }
  const int64_t expected =
      static_cast<int64_t>(funded) * state->config().initial_balance;
  if (balance_sum != expected) {
    failures->push_back("balance: sum=" + std::to_string(balance_sum) +
                        " expected=" + std::to_string(expected));
  }
}

Fingerprint FingerprintOf(const txallo::engine::PipelineResult& result,
                          txallo::engine::ParallelEngine* engine) {
  Fingerprint fingerprint;
  if (engine->state() != nullptr) {
    fingerprint.root = engine->state()->GlobalRoot();
  }
  fingerprint.committed = result.report.sim.committed;
  fingerprint.cross_shard_submitted = result.report.sim.cross_shard_submitted;
  fingerprint.accounts_moved = result.accounts_moved;
  fingerprint.latency = result.e2e_latency_ticks;
  return fingerprint;
}

}  // namespace perfbench

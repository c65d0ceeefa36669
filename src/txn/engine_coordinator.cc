// Coordinator role of the 2PC leg: after the shared compute phase has
// shipped the writes, READY collection → decide → COMPLETE/ABORT; plus
// the single-site fast path and outcome-inquiry answers.
#include "src/txn/engine.h"

#include <set>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

namespace polyvalue {

// §2.1 in spirit: a transaction confined to one site needs no atomic
// *distributed* update — no compute/wait phases, no in-doubt window.
// Lock, read, execute (still a polytransaction if local items hold
// polyvalues), install, decide, reply. Called under mu_.
bool TxnEngine::TryLocalFastPath(TxnId txn, const TxnSpec& spec,
                                 const TxnCallback& callback, Outbox* out) {
  // Gather all local keys.
  std::set<ItemKey> all_keys;
  for (const auto& [key, site] : spec.read_set) {
    all_keys.insert(key);
  }
  for (const auto& [key, site] : spec.write_set) {
    all_keys.insert(key);
  }
  auto finish = [&](TxnResult result) {
    ReleaseLocks(txn, out);
    out->thunks.push_back([callback, result = std::move(result)] {
      callback(result);
    });
  };

  // Lock everything (immediate abort on conflict, as in the full path).
  for (const ItemKey& key : all_keys) {
    const Status lock_status = items_->Lock(key, txn);
    if (!lock_status.ok()) {
      ++metrics_.local_fast_path;
      ++metrics_.txns_aborted;
      Trace(TraceEventType::kLocalFastPath, txn);
      Trace(TraceEventType::kDecisionAbort, txn);
      TxnResult r;
      r.id = txn;
      r.disposition = TxnDisposition::kAborted;
      r.abort_reason = lock_status.message();
      finish(std::move(r));
      return true;
    }
  }

  // Read inputs and previous values.
  std::map<ItemKey, PolyValue> inputs;
  std::map<ItemKey, PolyValue> previous;
  for (const auto& [key, site] : spec.read_set) {
    Result<PolyValue> value = items_->Read(key);
    if (!value.ok()) {
      ++metrics_.local_fast_path;
      ++metrics_.txns_aborted;
      Trace(TraceEventType::kLocalFastPath, txn);
      Trace(TraceEventType::kDecisionAbort, txn);
      TxnResult r;
      r.id = txn;
      r.disposition = TxnDisposition::kAborted;
      r.abort_reason = value.status().message();
      finish(std::move(r));
      return true;
    }
    inputs.emplace(key, std::move(value).value());
  }
  for (const auto& [key, site] : spec.write_set) {
    const Result<PolyValue> value = items_->Read(key);
    previous.emplace(key, value.ok() ? value.value()
                                     : PolyValue::Certain(Value::Null()));
  }

  PolyTxnOptions options;
  options.max_alternatives = config_.max_alternatives;
  const Result<PolyTxnResult> result =
      ExecutePolyTransaction(inputs, previous, spec.logic, options);
  ++metrics_.local_fast_path;
  Trace(TraceEventType::kLocalFastPath, txn);
  if (!result.ok()) {
    ++metrics_.txns_aborted;
    Trace(TraceEventType::kDecisionAbort, txn);
    TxnResult r;
    r.id = txn;
    r.disposition = TxnDisposition::kAborted;
    r.abort_reason = result.status().message();
    finish(std::move(r));
    return true;
  }
  bool any_uncertain_input = false;
  for (const auto& [key, value] : inputs) {
    any_uncertain_input |= !value.is_certain();
  }
  if (any_uncertain_input) {
    ++metrics_.polytxns;
    Trace(TraceEventType::kAlternativeFork, txn, false,
          result->alternatives_executed);
  }
  metrics_.alternatives_executed += result->alternatives_executed;

  TxnResult r;
  r.id = txn;
  r.output = result->output;
  if (!r.output.is_certain()) {
    ++metrics_.uncertain_outputs;
  }
  if (result->writes.empty()) {
    ++metrics_.txns_read_only;
    Trace(TraceEventType::kReadOnlyDone, txn);
    r.disposition = TxnDisposition::kReadOnly;
    finish(std::move(r));
    return true;
  }
  // Durable decision, then install — mirrors the full path's ordering.
  RecordDecisionDurable(txn, /*commit=*/true);
  Trace(TraceEventType::kDecisionCommit, txn);
  for (const auto& [key, value] : result->writes) {
    InstallValue(key, value);
  }
  ++metrics_.txns_committed;
  r.disposition = TxnDisposition::kCommitted;
  finish(std::move(r));
  return true;
}

void TxnEngine::FillPrepare(const Coordination& coord, Message* prepare) {
  // A 2PC PREPARE carries only its keys.
  (void)coord;
  (void)prepare;
}

void TxnEngine::ReleaseParticipants(TxnId txn,
                                    const std::vector<SiteId>& participants,
                                    Outbox* out) {
  // Nothing was promised: ABORT frees each participant's locks.
  for (SiteId site : participants) {
    out->sends.emplace_back(site, MakeAbort(txn));
  }
}

void TxnEngine::AwaitVotes(TxnId txn, Coordination* coord, Outbox* out) {
  (void)out;
  coord->awaiting.insert(coord->participants.begin(),
                         coord->participants.end());
  coord->timer = ScheduleGuarded(config_.ready_timeout,
                                 [this, txn] { ReadyTimeout(txn); });
}

void TxnEngine::ReadyTimeout(TxnId txn) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;
    }
    auto it = coordinations_.find(txn);
    if (it == coordinations_.end() ||
        it->second.phase != CoordPhase::kDeciding) {
      return;  // already decided
    }
    Decide(txn, /*commit=*/false, "timeout collecting ready votes", &out);
  }
  FlushOutbox(&out);
}

void TxnEngine::HandleReady(SiteId from, const Message& msg, Outbox* out) {
  auto it = coordinations_.find(msg.txn);
  if (it == coordinations_.end() ||
      it->second.phase != CoordPhase::kDeciding) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kReady));
    return;
  }
  if (it->second.awaiting.erase(from) == 0) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kReady));
    return;
  }
  Trace(TraceEventType::kVoteCollected, msg.txn,
        /*flag=*/it->second.awaiting.empty(), it->second.awaiting.size());
  if (it->second.awaiting.empty()) {
    Decide(msg.txn, /*commit=*/true, "", out);
  }
}

void TxnEngine::Decide(TxnId txn, bool commit, const std::string& reason,
                       Outbox* out) {
  auto it = coordinations_.find(txn);
  POLYV_CHECK(it != coordinations_.end());
  // Durable decision BEFORE any COMPLETE leaves: presumed abort depends
  // on commits never outrunning the log.
  RecordDecisionDurable(txn, commit);
  for (SiteId site : it->second.participants) {
    out->sends.emplace_back(site,
                            commit ? MakeComplete(txn) : MakeAbort(txn));
  }
  AnswerClient(txn, &it->second,
               commit ? TxnDisposition::kCommitted : TxnDisposition::kAborted,
               reason, out);
}

void TxnEngine::HandleOutcomeRequest(SiteId from, const Message& msg,
                                     Outbox* out) {
  if (CoordinatorOf(msg.txn) == self_) {
    auto decided = decided_.find(msg.txn);
    if (decided != decided_.end()) {
      Trace(TraceEventType::kOutcomeReplied, msg.txn, /*flag=*/true,
            from.value());
      out->sends.emplace_back(
          from, MakeOutcomeReply(msg.txn, true, decided->second));
      return;
    }
    if (coordinations_.count(msg.txn) > 0) {
      // Still in flight: genuinely unknown.
      Trace(TraceEventType::kOutcomeReplied, msg.txn, /*flag=*/false,
            from.value());
      out->sends.emplace_back(from, MakeOutcomeReply(msg.txn, false, false));
      return;
    }
    // No record: we never logged a commit, so no COMPLETE was ever sent.
    // Presumed abort.
    Trace(TraceEventType::kOutcomeReplied, msg.txn, /*flag=*/true,
          from.value());
    out->sends.emplace_back(from, MakeOutcomeReply(msg.txn, true, false));
    return;
  }
  // Not our transaction; answer from the resolved cache if we can.
  const std::optional<bool> known = outcomes_->KnownOutcome(msg.txn);
  Trace(TraceEventType::kOutcomeReplied, msg.txn, known.has_value(),
        from.value());
  out->sends.emplace_back(
      from, MakeOutcomeReply(msg.txn, known.has_value(),
                             known.value_or(false)));
}

}  // namespace polyvalue

// Leader role: Submit → PREPARE fan-out → execute (poly)transaction →
// WRITE_REQ fan-out → Phase2b tally per RM instance → decision
// broadcast. Also the recovery-ballot leader (Phase1a/1b → Phase2a)
// that any site becomes when nudged about a stalled transaction.
#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/paxos/paxos_engine.h"

namespace polyvalue {

void PaxosEngine::SubmitUnderLock(TxnSpec spec, TxnCallback callback,
                                  TxnId txn, Outbox* out) {
  MutexLock lock(&mu_);
  ++metrics_.txns_submitted;
  if (crashed_) {
    out->thunks.push_back([callback = std::move(callback), txn] {
      TxnResult r;
      r.id = txn;
      r.disposition = TxnDisposition::kAborted;
      r.abort_reason = "coordinator site is down";
      callback(r);
    });
    return;
  }
  Trace(TraceEventType::kSubmit, txn);
  Leadership lead;
  lead.has_spec = true;
  lead.participants = spec.Participants();
  lead.callback = std::move(callback);

  if (lead.participants.empty()) {
    // Pure computation: no RM group, no Paxos instances. Execute
    // immediately against an empty read set, same as the 2PC leg.
    TxnEffect effect = spec.logic(TxnReads{});
    TxnResult r;
    r.id = txn;
    if (effect.abort) {
      ++metrics_.txns_aborted;
      Trace(TraceEventType::kDecisionAbort, txn);
      r.disposition = TxnDisposition::kAborted;
      r.abort_reason = effect.abort_reason;
    } else {
      POLYV_CHECK_MSG(effect.writes.empty(),
                      "transaction writes items but declared no sites");
      ++metrics_.txns_read_only;
      Trace(TraceEventType::kReadOnlyDone, txn);
      r.disposition = TxnDisposition::kReadOnly;
      r.output = PolyValue::Certain(effect.output.value_or(Value::Null()));
    }
    out->thunks.push_back([cb = std::move(lead.callback), r] { cb(r); });
    return;
  }

  // Compute phase, identical wire traffic to 2PC — except the PREPARE
  // carries the RM group, so every vote/nudge can name the full
  // instance set to a future recovery leader.
  for (SiteId site : lead.participants) {
    std::vector<ItemKey> reads;
    std::vector<ItemKey> writes;
    for (const auto& [key, owner] : spec.read_set) {
      if (owner == site) {
        reads.push_back(key);
      }
    }
    for (const auto& [key, owner] : spec.write_set) {
      if (owner == site) {
        writes.push_back(key);
      }
    }
    lead.awaiting.insert(site);
    Message prepare =
        MakePrepare(txn, self_, std::move(reads), std::move(writes));
    prepare.group = lead.participants;
    out->sends.emplace_back(site, std::move(prepare));
  }
  lead.spec = std::move(spec);
  lead.timer = ScheduleGuarded(config_.prepare_timeout,
                               [this, txn] { LeaderTimeout(txn); });
  leaderships_.emplace(txn, std::move(lead));
}

void PaxosEngine::HandlePrepareReply(SiteId from, const Message& msg,
                                     Outbox* out) {
  auto it = leaderships_.find(msg.txn);
  if (it == leaderships_.end() ||
      it->second.phase != LeaderPhase::kCollecting) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPrepareReply));
    return;  // stale (txn decided or already past the compute phase)
  }
  Leadership& lead = it->second;
  if (!msg.ok) {
    AbortBeforeVotes(msg.txn, &lead,
                     StrCat("participant ", from, " refused: ", msg.error),
                     out);
    return;
  }
  if (lead.awaiting.erase(from) == 0) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPrepareReply));
    return;  // duplicate
  }
  for (const auto& [key, value] : msg.values) {
    lead.collected.insert_or_assign(key, value);
  }
  Trace(TraceEventType::kVoteCollected, msg.txn,
        /*flag=*/lead.awaiting.empty(), lead.awaiting.size());
  if (!lead.awaiting.empty()) {
    return;
  }
  ExecuteAndShip(msg.txn, &lead, out);
}

void PaxosEngine::ExecuteAndShip(TxnId txn, Leadership* lead, Outbox* out) {
  scheduler_->Cancel(lead->timer);
  lead->timer = 0;

  // Split the collected values into logic inputs (read set) and
  // previous values (write set); a read-write item appears in both.
  std::map<ItemKey, PolyValue> inputs;
  std::map<ItemKey, PolyValue> previous;
  for (const auto& [key, owner] : lead->spec.read_set) {
    auto found = lead->collected.find(key);
    POLYV_CHECK_MSG(found != lead->collected.end(),
                    "participant did not return read item '" << key << "'");
    inputs.emplace(key, found->second);
  }
  for (const auto& [key, owner] : lead->spec.write_set) {
    auto found = lead->collected.find(key);
    if (found != lead->collected.end()) {
      previous.emplace(key, found->second);
    }
  }

  PolyTxnOptions options;
  options.max_alternatives = config_.max_alternatives;
  Result<PolyTxnResult> result =
      ExecutePolyTransaction(inputs, previous, lead->spec.logic, options);
  if (!result.ok()) {
    AbortBeforeVotes(txn, lead, result.status().message(), out);
    return;
  }
  metrics_.alternatives_executed += result->alternatives_executed;
  lead->output = result->output;

  if (result->writes.empty()) {
    // Read-only: nothing to choose. Fix ABORT so the RMs release their
    // locks (they have no prepared writes to lose) and report success.
    RecordDecision(txn, /*committed=*/false);
    TxnResult r;
    r.id = txn;
    r.disposition = TxnDisposition::kReadOnly;
    r.output = lead->output;
    ++metrics_.txns_read_only;
    Trace(TraceEventType::kReadOnlyDone, txn);
    for (SiteId site : lead->participants) {
      out->sends.emplace_back(site, MakePaxosDecision(txn, false));
    }
    out->thunks.push_back([cb = lead->callback, r] { cb(r); });
    leaderships_.erase(txn);
    return;
  }

  // Ship each RM its writes; on receipt it saves them durably and casts
  // its Phase2a(ballot 0, Prepared) vote to every acceptor. This leader
  // tallies the echoes at ballot 0.
  lead->phase = LeaderPhase::kVoting;
  lead->ballot = 0;
  for (SiteId site : lead->participants) {
    std::map<ItemKey, PolyValue> site_writes;
    for (const auto& [key, value] : result->writes) {
      auto owner = lead->spec.write_set.find(key);
      POLYV_CHECK_MSG(owner != lead->spec.write_set.end(),
                      "logic wrote undeclared item '" << key << "'");
      if (owner->second == site) {
        site_writes.emplace(key, value);
      }
    }
    out->sends.emplace_back(site, MakeWriteReq(txn, std::move(site_writes)));
  }
  Trace(TraceEventType::kWriteShipped, txn, false,
        lead->participants.size());
  lead->timer = ScheduleGuarded(config_.ready_timeout,
                                [this, txn] { LeaderTimeout(txn); });
}

void PaxosEngine::AbortBeforeVotes(TxnId txn, Leadership* lead,
                                   const std::string& reason, Outbox* out) {
  // No RM has voted yet (votes only follow WRITE_REQ), so no instance
  // can ever choose Prepared — deciding ABORT locally is safe, and no
  // recovery leader can contradict it.
  RecordDecision(txn, /*committed=*/false);
  for (SiteId site : lead->participants) {
    out->sends.emplace_back(site, MakePaxosDecision(txn, false));
  }
  DeliverClientResult(txn, lead, /*commit=*/false, reason, out);
}

void PaxosEngine::HandlePhase2b(SiteId from, const Message& msg,
                                Outbox* out) {
  (void)out;
  auto it = leaderships_.find(msg.txn);
  if (it == leaderships_.end() ||
      it->second.phase != LeaderPhase::kVoting ||
      msg.ballot != it->second.ballot) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPaxosPhase2b));
    return;  // stale ballot, or this site is no longer tallying
  }
  Leadership& lead = it->second;
  const bool known_instance =
      std::find(lead.participants.begin(), lead.participants.end(),
                msg.rm) != lead.participants.end();
  if (!known_instance || lead.chosen.count(msg.rm) > 0) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPaxosPhase2b));
    return;
  }
  std::set<SiteId>& echoes = lead.acks[msg.rm];
  echoes.insert(from);
  if (echoes.size() < Majority()) {
    Trace(TraceEventType::kVoteCollected, msg.txn, /*flag=*/false,
          echoes.size());
    return;
  }
  lead.chosen.insert(msg.rm);
  const bool value =
      lead.ballot == 0 ? msg.ok : lead.proposed[msg.rm];
  Trace(TraceEventType::kPaxosChosen, msg.txn, /*peer=*/msg.rm,
        /*flag=*/value, lead.ballot);
  if (lead.chosen.size() < lead.participants.size()) {
    return;
  }
  FinishTally(msg.txn, &lead, out);
}

void PaxosEngine::FinishTally(TxnId txn, Leadership* lead, Outbox* out) {
  // Every instance chose: commit iff every one chose Prepared. At
  // ballot 0 the RMs only ever propose Prepared, so the tally is
  // trivially commit; recovery ballots carry whatever Phase1b reported.
  bool commit = true;
  if (lead->ballot != 0) {
    for (SiteId rm : lead->participants) {
      const auto proposed = lead->proposed.find(rm);
      commit = commit && proposed != lead->proposed.end() &&
               proposed->second;
    }
  }
  RecordDecision(txn, commit);
  Trace(TraceEventType::kPaxosDecide, txn, /*flag=*/commit, lead->ballot);
  BroadcastDecision(txn, commit, out);
  if (lead->has_spec) {
    DeliverClientResult(txn, lead, commit,
                        commit ? "" : "paxos instances chose abort", out);
    return;
  }
  if (lead->timer != 0) {
    scheduler_->Cancel(lead->timer);
  }
  leaderships_.erase(txn);
}

void PaxosEngine::DeliverClientResult(TxnId txn, Leadership* lead,
                                      bool commit, const std::string& reason,
                                      Outbox* out) {
  if (lead->timer != 0) {
    scheduler_->Cancel(lead->timer);
    lead->timer = 0;
  }
  TxnResult r;
  r.id = txn;
  Trace(commit ? TraceEventType::kDecisionCommit
               : TraceEventType::kDecisionAbort,
        txn);
  if (commit) {
    ++metrics_.txns_committed;
    r.disposition = TxnDisposition::kCommitted;
    r.output = lead->output;
  } else {
    ++metrics_.txns_aborted;
    r.disposition = TxnDisposition::kAborted;
    r.abort_reason = reason;
  }
  out->thunks.push_back([cb = lead->callback, r] {
    if (cb) {
      cb(r);
    }
  });
  leaderships_.erase(txn);  // invalidates lead
}

void PaxosEngine::StartRecovery(TxnId txn,
                                const std::vector<SiteId>& group_hint,
                                Outbox* out) {
  // Claim (or escalate) the recovery leadership with a fresh self-owned
  // ballot. Ballots are partitioned by site (round*N + index), so two
  // concurrent recovery leaders can never collide on one.
  Leadership& lead = leaderships_[txn];
  ++lead.round;
  // `lead` is volatile: after Crash() it restarts at round 1. The site's
  // own acceptor promise is durable and covers every ballot this site
  // has run that reached it, so climb past it — a reused ballot would
  // let a stale pre-crash Phase1b count toward the new round.
  const auto acc = acceptor_.find(txn);
  if (acc != acceptor_.end() &&
      RecoveryBallot(lead.round) <= acc->second.promised) {
    lead.round = (acc->second.promised - (self_.value() - 1)) /
                     config_.cluster_sites +
                 1;
  }
  lead.ballot = RecoveryBallot(lead.round);
  lead.phase = LeaderPhase::kRecovering;
  for (SiteId rm : group_hint) {
    if (std::find(lead.participants.begin(), lead.participants.end(), rm) ==
        lead.participants.end()) {
      lead.participants.push_back(rm);
    }
  }
  std::sort(lead.participants.begin(), lead.participants.end());
  lead.promised_from.clear();
  lead.best_accepted.clear();
  lead.proposed.clear();
  lead.acks.clear();
  lead.chosen.clear();
  if (lead.timer != 0) {
    scheduler_->Cancel(lead.timer);
  }
  ++metrics_.paxos_recovery_ballots;
  Trace(TraceEventType::kPaxosRecoveryBallot, txn, /*flag=*/false,
        lead.ballot);
  out->sends.emplace_back(AllSites{}, MakePaxosPhase1a(txn, lead.ballot));
  lead.timer = ScheduleGuarded(config_.paxos_failover_timeout,
                               [this, txn] { LeaderTimeout(txn); });
}

void PaxosEngine::HandlePhase1b(SiteId from, const Message& msg,
                                Outbox* out) {
  auto it = leaderships_.find(msg.txn);
  if (it == leaderships_.end() ||
      it->second.phase != LeaderPhase::kRecovering ||
      msg.ballot != it->second.ballot) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPaxosPhase1b));
    return;
  }
  Leadership& lead = it->second;
  for (SiteId rm : msg.group) {
    if (std::find(lead.participants.begin(), lead.participants.end(), rm) ==
        lead.participants.end()) {
      lead.participants.push_back(rm);
    }
  }
  std::sort(lead.participants.begin(), lead.participants.end());
  for (const Message::PaxosInstance& inst : msg.instances) {
    auto best = lead.best_accepted.find(inst.rm);
    if (best == lead.best_accepted.end() ||
        inst.ballot >= best->second.first) {
      lead.best_accepted[inst.rm] = {inst.ballot, inst.prepared};
    }
  }
  lead.promised_from.insert(from);
  Trace(TraceEventType::kVoteCollected, msg.txn,
        /*flag=*/lead.promised_from.size() >= Majority(),
        lead.promised_from.size());
  if (lead.promised_from.size() < Majority()) {
    return;
  }

  // A majority promised: older ballots can no longer complete behind our
  // back. Propose, per instance, the highest-ballot accepted value any
  // promiser reported — or Aborted if none did (that RM never voted, and
  // our promise majority blocks it from sneaking a vote past ballot 0).
  lead.phase = LeaderPhase::kVoting;
  if (lead.participants.empty()) {
    // No promiser had ever heard of this transaction and the nudge
    // carried no group: nothing was prepared anywhere — fix ABORT.
    RecordDecision(msg.txn, /*committed=*/false);
    Trace(TraceEventType::kPaxosDecide, msg.txn, /*flag=*/false,
          lead.ballot);
    BroadcastDecision(msg.txn, false, out);
    if (lead.timer != 0) {
      scheduler_->Cancel(lead.timer);
    }
    leaderships_.erase(msg.txn);
    return;
  }
  for (SiteId rm : lead.participants) {
    const auto best = lead.best_accepted.find(rm);
    const bool value =
        best != lead.best_accepted.end() && best->second.second;
    lead.proposed[rm] = value;
    out->sends.emplace_back(
        AllSites{},
        MakePaxosPhase2a(msg.txn, lead.ballot, rm, value, lead.participants));
  }
}

void PaxosEngine::LeaderTimeout(TxnId txn) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;
    }
    auto it = leaderships_.find(txn);
    if (it == leaderships_.end() || decided_.count(txn) > 0) {
      return;  // already settled
    }
    Leadership& lead = it->second;
    if (lead.phase == LeaderPhase::kCollecting) {
      // Compute phase stalled: nobody voted, unilateral abort is safe.
      AbortBeforeVotes(txn, &lead, "timeout collecting prepare replies",
                       &out);
    } else {
      // Ballot-0 tally or a previous recovery round stalled (lost votes,
      // dead acceptors): escalate to the next self-owned ballot.
      StartRecovery(txn, lead.participants, &out);
    }
  }
  FlushOutbox(&out);
}

}  // namespace polyvalue

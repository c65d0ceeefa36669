// RM + acceptor roles. The RM half mirrors the 2PC participant's
// compute phase (lock, read, reply, await writes), but instead of READY
// it durably saves the shipped writes and broadcasts its own Paxos
// instance's Phase2a(ballot 0, Prepared) to every acceptor — after
// which it is *never* in doubt about whom to ask: any site can finish
// the decision. The acceptor half is textbook Paxos, one instance per
// RM in the group, keyed by (txn, rm).
#include "src/paxos/paxos_engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

namespace polyvalue {

void PaxosEngine::HandlePrepare(SiteId from, const Message& msg,
                                Outbox* out) {
  (void)from;
  const TxnId txn = msg.txn;
  if (participations_.count(txn) > 0 || prepared_.count(txn) > 0 ||
      decided_.count(txn) > 0) {
    Trace(TraceEventType::kMsgIgnored, txn, false,
          static_cast<uint64_t>(MsgType::kPrepare));
    return;  // duplicate PREPARE (or txn already settled here)
  }

  // idle -> compute: lock every item this site contributes, then read.
  // The Paxos leg always locks no-wait: its decisions never stall on a
  // failed coordinator, so lock queues would only add deadlock risk.
  Participation part;
  part.leader = msg.coordinator;
  part.state = PartState::kCompute;
  part.group = msg.group;
  part.compute_entered_at = scheduler_->Now();

  std::vector<ItemKey> all_keys = msg.read_keys;
  all_keys.insert(all_keys.end(), msg.write_keys.begin(),
                  msg.write_keys.end());
  std::sort(all_keys.begin(), all_keys.end());
  all_keys.erase(std::unique(all_keys.begin(), all_keys.end()),
                 all_keys.end());

  for (const ItemKey& key : all_keys) {
    const Status lock_status = items_->Lock(key, txn);
    if (!lock_status.ok()) {
      ReleaseLocks(txn, out);
      Trace(TraceEventType::kPrepareRefused, txn);
      out->sends.emplace_back(msg.coordinator,
                              MakePrepareRefusal(txn, lock_status.message()));
      return;
    }
    part.locked_keys.push_back(key);
  }

  std::map<ItemKey, PolyValue> values;
  for (const ItemKey& key : all_keys) {
    Result<PolyValue> value = items_->Read(key);
    if (!value.ok()) {
      const bool is_write_only =
          std::find(msg.read_keys.begin(), msg.read_keys.end(), key) ==
          msg.read_keys.end();
      if (is_write_only) {
        // Creating a new item: previous value is Null.
        values.emplace(key, PolyValue::Certain(Value::Null()));
        continue;
      }
      ReleaseLocks(txn, out);
      Trace(TraceEventType::kPrepareRefused, txn);
      out->sends.emplace_back(
          msg.coordinator,
          MakePrepareRefusal(txn, value.status().message()));
      return;
    }
    values.emplace(key, std::move(value).value());
  }

  // Compute-phase watchdog: if the leader dies before shipping writes,
  // discard. We have not voted, so unilateral abort is safe — and the
  // leader's own compute-phase timeout fixes ABORT for the client.
  part.timer = ScheduleGuarded(
      config_.prepare_timeout + config_.ready_timeout,
      [this, txn] { ComputeWatchdog(txn); });

  auto [it, inserted] = participations_.emplace(txn, std::move(part));
  POLYV_CHECK(inserted);
  Trace(TraceEventType::kPrepareRecv, txn);
  Trace(TraceEventType::kPrepareReplied, txn, /*flag=*/true);
  out->sends.emplace_back(it->second.leader,
                          MakePrepareReply(txn, std::move(values)));
}

void PaxosEngine::ComputeWatchdog(TxnId txn) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;
    }
    auto it = participations_.find(txn);
    if (it == participations_.end() ||
        it->second.state != PartState::kCompute) {
      return;  // writes arrived (or outcome already applied)
    }
    ReleaseLocks(txn, &out);
    participations_.erase(it);
    Trace(TraceEventType::kComputeDiscard, txn);
  }
  FlushOutbox(&out);
}

void PaxosEngine::HandleWriteReq(SiteId from, const Message& msg,
                                 Outbox* out) {
  (void)from;
  const TxnId txn = msg.txn;
  auto it = participations_.find(txn);
  if (it == participations_.end() ||
      it->second.state != PartState::kCompute) {
    Trace(TraceEventType::kMsgIgnored, txn, false,
          static_cast<uint64_t>(MsgType::kWriteReq));
    return;  // discarded by the watchdog, or a duplicate
  }
  Participation& part = it->second;
  if (part.timer != 0) {
    scheduler_->Cancel(part.timer);
    part.timer = 0;
  }
  const double now = scheduler_->Now();
  metrics_.compute_phase_seconds += now - part.compute_entered_at;
  ++metrics_.compute_phase_count;
  part.state = PartState::kWait;
  part.wait_entered_at = now;

  // The durable vote: saving the writes and casting Phase2a(0, Prepared)
  // are one atomic step by contract (prepared_ survives Crash()).
  Prepared prep;
  prep.leader = part.leader;
  prep.group = part.group;
  prep.writes = msg.writes;
  prepared_.emplace(txn, std::move(prep));
  VoteAndArm(txn, &part, out);
}

void PaxosEngine::VoteAndArm(TxnId txn, Participation* part, Outbox* out) {
  ++metrics_.paxos_votes;
  Trace(TraceEventType::kPaxosVote, txn, /*flag=*/true,
        config_.cluster_sites);
  out->sends.emplace_back(
      AllSites{}, MakePaxosPhase2a(txn, /*ballot=*/0, self_,
                                   /*prepared=*/true, part->group));
  part->attempt = 0;
  part->timer = ScheduleGuarded(config_.paxos_failover_timeout,
                                [this, txn] { FailoverTick(txn); });
}

void PaxosEngine::FailoverTick(TxnId txn) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;
    }
    auto it = participations_.find(txn);
    if (it == participations_.end() ||
        it->second.state != PartState::kWait) {
      return;  // outcome landed — no failover needed
    }
    const auto decided = decided_.find(txn);
    if (decided != decided_.end()) {
      // The outcome is already durable here but the decision message
      // that would have installed it was lost (drops apply even to the
      // self-addressed copy of a broadcast). Install directly.
      ApplyOutcome(txn, decided->second, &out);
      return;
    }
    Participation& part = it->second;
    ++part.attempt;
    const SiteId standby = StandbyLeader(txn, part.attempt);
    ++metrics_.paxos_failovers;
    Trace(TraceEventType::kPaxosFailover, txn, /*peer=*/standby,
          /*flag=*/standby == self_,
          static_cast<uint64_t>(part.attempt));
    if (standby == self_) {
      // As in HandleNudge: a ballot this site already runs for txn has
      // its own LeaderTimeout to escalate it; a second would compete.
      if (leaderships_.count(txn) == 0) {
        StartRecovery(txn, part.group, &out);
      }
    } else {
      out.sends.emplace_back(standby, MakePaxosNudge(txn, part.group));
    }
    part.timer = ScheduleGuarded(config_.paxos_failover_timeout,
                                 [this, txn] { FailoverTick(txn); });
  }
  FlushOutbox(&out);
}

void PaxosEngine::HandlePhase1a(SiteId from, const Message& msg,
                                Outbox* out) {
  const auto decided = decided_.find(msg.txn);
  if (decided != decided_.end()) {
    // The outcome is already fixed; a would-be recovery leader just
    // needs to hear it, not run a ballot.
    Trace(TraceEventType::kOutcomeReplied, msg.txn, /*flag=*/true,
          from.value());
    out->sends.emplace_back(from,
                            MakePaxosDecision(msg.txn, decided->second));
    return;
  }
  AcceptorTxn& acc = acceptor_[msg.txn];
  if (msg.ballot <= acc.promised) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPaxosPhase1a));
    return;  // an equal or higher ballot already holds our promise
  }
  acc.promised = msg.ballot;
  Trace(TraceEventType::kPaxosPromise, msg.txn, /*peer=*/from,
        /*flag=*/false, msg.ballot);
  std::vector<Message::PaxosInstance> instances;
  instances.reserve(acc.accepted.size());
  for (const auto& [rm, accepted] : acc.accepted) {
    instances.push_back({rm, accepted.first, accepted.second});
  }
  out->sends.emplace_back(
      from, MakePaxosPhase1b(msg.txn, msg.ballot, std::move(instances),
                             acc.group));
}

void PaxosEngine::HandlePhase2a(SiteId from, const Message& msg,
                                Outbox* out) {
  (void)from;
  AcceptorTxn& acc = acceptor_[msg.txn];
  if (msg.ballot < acc.promised) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPaxosPhase2a));
    return;  // promised away to a higher ballot
  }
  acc.promised = std::max(acc.promised, msg.ballot);
  acc.accepted[msg.rm] = {msg.ballot, msg.ok};
  if (acc.group.empty()) {
    acc.group = msg.group;
  }
  ++metrics_.paxos_accepts;
  Trace(TraceEventType::kPaxosAccept, msg.txn, /*peer=*/msg.rm,
        /*flag=*/msg.ok, msg.ballot);
  out->sends.emplace_back(
      BallotOwner(msg.txn, msg.ballot),
      MakePaxosPhase2b(msg.txn, msg.ballot, msg.rm, msg.ok));
}

void PaxosEngine::HandleDecision(SiteId from, const Message& msg,
                                 Outbox* out) {
  (void)from;
  const bool news = decided_.count(msg.txn) == 0;
  RecordDecision(msg.txn, msg.committed);
  // "Learned" when the message teaches us the outcome OR makes us apply
  // it to a still-pending participation (the decider hearing its own
  // broadcast); ignored when it does neither.
  const bool learned = news || participations_.count(msg.txn) > 0;
  Trace(learned ? TraceEventType::kOutcomeLearned
                : TraceEventType::kMsgIgnored,
        msg.txn, /*flag=*/learned && msg.committed,
        learned ? 0 : static_cast<uint64_t>(MsgType::kPaxosDecision));
  auto lead_it = leaderships_.find(msg.txn);
  if (lead_it != leaderships_.end()) {
    // Another leader finished the decision first. If we are the
    // original leader, the client is still waiting on us.
    if (lead_it->second.has_spec) {
      DeliverClientResult(msg.txn, &lead_it->second, msg.committed,
                          msg.committed ? "" : "aborted by recovery leader",
                          out);
    } else {
      if (lead_it->second.timer != 0) {
        scheduler_->Cancel(lead_it->second.timer);
      }
      leaderships_.erase(lead_it);
    }
  }
  if (participations_.count(msg.txn) > 0) {
    ApplyOutcome(msg.txn, msg.committed, out);
  }
}

void PaxosEngine::HandleNudge(SiteId from, const Message& msg, Outbox* out) {
  const auto decided = decided_.find(msg.txn);
  if (decided != decided_.end()) {
    Trace(TraceEventType::kOutcomeReplied, msg.txn, /*flag=*/true,
          from.value());
    out->sends.emplace_back(from,
                            MakePaxosDecision(msg.txn, decided->second));
    return;
  }
  if (leaderships_.count(msg.txn) > 0) {
    // Already driving this transaction (original tally or an earlier
    // nudge); our own timers escalate if it stalls again.
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPaxosNudge));
    return;
  }
  StartRecovery(msg.txn, msg.group, out);
}

void PaxosEngine::ApplyOutcome(TxnId txn, bool committed, Outbox* out) {
  auto it = participations_.find(txn);
  if (it != participations_.end()) {
    Participation& part = it->second;
    if (part.timer != 0) {
      scheduler_->Cancel(part.timer);
      part.timer = 0;
    }
    if (part.state == PartState::kWait) {
      const double waited = scheduler_->Now() - part.wait_entered_at;
      metrics_.wait_phase_seconds += waited;
      ++metrics_.wait_phase_count;
      metrics_.wait_phase_max = std::max(metrics_.wait_phase_max, waited);
    }
    const auto prep = prepared_.find(txn);
    if (committed && prep != prepared_.end()) {
      for (const auto& [key, value] : prep->second.writes) {
        items_->Write(key, value);
      }
    }
    ReleaseLocks(txn, out);
    participations_.erase(it);
  }
  prepared_.erase(txn);
}

void PaxosEngine::ReleaseLocks(TxnId txn, Outbox* out) {
  (void)out;
  items_->CancelWaits(txn);
  // No-wait locking: UnlockAll never wakes queued waiters in this leg.
  (void)items_->UnlockAll(txn);
}

}  // namespace polyvalue

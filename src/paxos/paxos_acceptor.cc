// RM + acceptor roles. The RM's compute phase is the shared one
// (compute_phase.cc); on WRITE_REQ, instead of READY, the RM durably
// saves the shipped writes and broadcasts its own Paxos instance's
// Phase2a(ballot 0, Prepared) to every acceptor — after which it is
// *never* in doubt about whom to ask: any site can finish the decision.
// The acceptor half is textbook Paxos, one instance per RM in the
// group, keyed by (txn, rm).
#include "src/paxos/paxos_engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

namespace polyvalue {

void PaxosEngine::TrackShipped(const PolyValue& value, SiteId to) {
  // The Paxos leg installs only certain values, so nothing it ships
  // depends on another transaction's outcome.
  (void)value;
  (void)to;
}

void PaxosEngine::Vote(TxnId txn, SiteId from, Participation* part,
                       const std::map<ItemKey, PolyValue>& writes,
                       Outbox* out) {
  (void)from;
  // The durable vote: saving the writes and casting Phase2a(0, Prepared)
  // are one atomic step by contract (prepared_ survives Crash()).
  prepared_.emplace(txn, Prepared{part->coordinator, part->group, writes});
  VoteAndArm(txn, part, out);
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
  // Another leader may have finished the decision first. If we are the
  // original leader, the client is still waiting on us.
  EndLeadership(msg.txn, msg.committed,
                msg.committed ? "" : "aborted by recovery leader", out);
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
    EndWaitPhase(&part);
    const auto prep = prepared_.find(txn);
    if (committed && prep != prepared_.end()) {
      for (const auto& [key, value] : prep->second.writes) {
        items_->Write(key, value);
      }
    }
    ReleaseLocks(txn, out);
    participations_.erase(txn);
  }
  prepared_.erase(txn);
}

}  // namespace polyvalue

// Leader role: once the shared compute phase has shipped the writes,
// the Phase2b tally per RM instance → decision broadcast. Also the
// recovery-ballot leader (Phase1a/1b → Phase2a) that any site becomes
// when nudged about a stalled transaction.
#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/paxos/paxos_engine.h"

namespace polyvalue {

bool PaxosEngine::TryLocalFastPath(TxnId txn, const TxnSpec& spec,
                                   const TxnCallback& callback, Outbox* out) {
  (void)txn;
  (void)spec;
  (void)callback;
  (void)out;
  return false;
}

void PaxosEngine::FillPrepare(const Coordination& coord, Message* prepare) {
  // The PREPARE carries the RM group, so every vote/nudge can name the
  // full instance set to a future recovery leader.
  prepare->group = coord.participants;
}

void PaxosEngine::ReleaseParticipants(TxnId txn,
                                      const std::vector<SiteId>& participants,
                                      Outbox* out) {
  // No RM has voted yet (votes only follow WRITE_REQ), so no instance
  // can ever choose Prepared — deciding ABORT locally is safe, and no
  // recovery leader can contradict it. The RMs release their locks
  // (they have no prepared writes to lose).
  RecordDecision(txn, /*committed=*/false);
  for (SiteId site : participants) {
    out->sends.emplace_back(site, MakePaxosDecision(txn, false));
  }
}

void PaxosEngine::AwaitVotes(TxnId txn, Coordination* coord, Outbox* out) {
  (void)out;
  // On receipt of its writes each RM saves them durably and casts its
  // Phase2a(ballot 0, Prepared) vote to every acceptor. This leader
  // tallies the echoes at ballot 0.
  Leadership& lead = leaderships_[txn];
  lead.phase = LeaderPhase::kVoting;
  lead.ballot = 0;
  lead.participants = coord->participants;
  lead.timer = ScheduleGuarded(config_.ready_timeout,
                               [this, txn] { LeaderTimeout(txn); });
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
  EndLeadership(txn, commit, commit ? "" : "paxos instances chose abort",
                out);
}

void PaxosEngine::EndLeadership(TxnId txn, bool commit,
                                const std::string& reason, Outbox* out) {
  auto coord = coordinations_.find(txn);
  if (coord != coordinations_.end()) {
    AnswerClient(txn, &coord->second,
                 commit ? TxnDisposition::kCommitted
                        : TxnDisposition::kAborted,
                 reason, out);
  }
  auto lead = leaderships_.find(txn);
  if (lead != leaderships_.end()) {
    if (lead->second.timer != 0) {
      scheduler_->Cancel(lead->second.timer);
    }
    leaderships_.erase(lead);
  }
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
    EndLeadership(msg.txn, /*commit=*/false, "paxos instances chose abort",
                  out);
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
    // The ballot-0 tally or a previous recovery round stalled (lost
    // votes, dead acceptors): escalate to the next self-owned ballot.
    StartRecovery(txn, it->second.participants, &out);
  }
  FlushOutbox(&out);
}

}  // namespace polyvalue

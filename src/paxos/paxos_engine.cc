// Shared PaxosEngine internals: construction, message dispatch, decision
// recording/broadcast, crash/recovery.
#include "src/paxos/paxos_engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace polyvalue {

PaxosEngine::PaxosEngine(SiteId self, ItemStore* items, Scheduler* scheduler,
                         SendFn send, EngineConfig config)
    : CommitProtocol(self, items, scheduler, std::move(send), config) {
  POLYV_CHECK_GE(config_.cluster_sites, 1u);
  POLYV_CHECK_LE(self.value(), config_.cluster_sites);
}

PaxosEngine::~PaxosEngine() { *alive_ = false; }

SiteId PaxosEngine::BallotOwner(TxnId txn, uint64_t ballot) const {
  if (ballot == 0) {
    return CoordinatorOf(txn);
  }
  return SiteAt(ballot % config_.cluster_sites);
}

uint64_t PaxosEngine::RecoveryBallot(uint64_t round) const {
  // round >= 1, so recovery ballots are always > 0 and partitioned by
  // site: no two sites can ever own the same ballot.
  return round * config_.cluster_sites + (self_.value() - 1);
}

SiteId PaxosEngine::StandbyLeader(TxnId txn, int attempt) const {
  const size_t base = CoordinatorOf(txn).value() - 1;
  return SiteAt((base + static_cast<size_t>(attempt)) %
                config_.cluster_sites);
}

void PaxosEngine::OnMessage(SiteId from, const Message& msg) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;  // a down site neither sends nor receives
    }
    POLYV_TRACE << self_ << " <- " << from << " " << MsgTypeName(msg.type)
                << " " << msg.txn;
    switch (msg.type) {
      case MsgType::kPrepare:
        HandlePrepare(from, msg, &out);
        break;
      case MsgType::kPrepareReply:
        HandlePrepareReply(from, msg, &out);
        break;
      case MsgType::kWriteReq:
        HandleWriteReq(from, msg, &out);
        break;
      case MsgType::kPaxosPhase1a:
        HandlePhase1a(from, msg, &out);
        break;
      case MsgType::kPaxosPhase1b:
        HandlePhase1b(from, msg, &out);
        break;
      case MsgType::kPaxosPhase2a:
        HandlePhase2a(from, msg, &out);
        break;
      case MsgType::kPaxosPhase2b:
        HandlePhase2b(from, msg, &out);
        break;
      case MsgType::kPaxosDecision:
        HandleDecision(from, msg, &out);
        break;
      case MsgType::kPaxosNudge:
        HandleNudge(from, msg, &out);
        break;
      case MsgType::kReady:
      case MsgType::kComplete:
      case MsgType::kAbort:
      case MsgType::kOutcomeRequest:
      case MsgType::kOutcomeReply:
      case MsgType::kOutcomeNotify:
        // 2PC-leg traffic; a Paxos cluster never generates it, so any
        // arrival is a stray — discard loudly.
        Trace(TraceEventType::kMsgIgnored, msg.txn, false,
              static_cast<uint64_t>(msg.type));
        break;
    }
  }
  FlushOutbox(&out);
}

void PaxosEngine::RecordDecision(TxnId txn, bool committed) {
  const auto [it, inserted] = decided_.emplace(txn, committed);
  // Paxos safety: every decider must fix the same outcome. A
  // disagreement here is a protocol bug, never a runtime condition.
  POLYV_CHECK_EQ(it->second, committed);
}

void PaxosEngine::BroadcastDecision(TxnId txn, bool committed, Outbox* out) {
  // Every site hears the outcome: RMs install/discard, standbys answer
  // later nudges from their decided_ table instead of running ballots.
  out->sends.emplace_back(AllSites{}, MakePaxosDecision(txn, committed));
}

void PaxosEngine::Crash() {
  MutexLock lock(&mu_);
  Trace(TraceEventType::kCrash, TxnId());
  crashed_ = true;
  // In-flight clients never hear back — the real failure mode. With
  // Paxos Commit the *decision* still completes via failover; only this
  // site's client channel is lost.
  DropComputeState();
  for (auto& [txn, lead] : leaderships_) {
    if (lead.timer != 0) {
      scheduler_->Cancel(lead.timer);
    }
  }
  leaderships_.clear();
  // acceptor_, prepared_, decided_ survive: they are the durable state
  // Gray-Lamport requires of acceptors and prepared RMs.
}

void PaxosEngine::Recover() {
  Outbox out;
  {
    MutexLock lock(&mu_);
    crashed_ = false;
    Trace(TraceEventType::kRecover, TxnId());
    // The prepared writes are this RM's vote: re-guard them until the
    // outcome lands.
    std::vector<TxnId> pending;
    for (const auto& [txn, prepared] : prepared_) {
      pending.push_back(txn);
    }
    for (TxnId txn : pending) {
      auto [it, inserted] = participations_.emplace(
          txn, RelockPrepared(txn, prepared_.at(txn)));
      it->second.wait_entered_at = scheduler_->Now();
      const auto decided = decided_.find(txn);
      if (decided != decided_.end()) {
        ApplyOutcome(txn, decided->second, &out);
      } else {
        // Re-vote — idempotent at the acceptors — and re-arm failover.
        VoteAndArm(txn, &it->second, &out);
      }
    }
  }
  FlushOutbox(&out);
}

}  // namespace polyvalue

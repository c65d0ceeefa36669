// Shared PaxosEngine internals: construction, message dispatch, decision
// recording/broadcast, crash/recovery, outbox plumbing.
#include "src/paxos/paxos_engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace polyvalue {
namespace {

// The keys of a hashed per-transaction table in ascending TxnId order,
// for loops whose order is visible (sends, lock releases, traces).
template <typename Table>
std::vector<TxnId> SortedTxns(const Table& table) {
  std::vector<TxnId> txns;
  txns.reserve(table.size());
  for (const auto& entry : table) {
    txns.push_back(entry.first);
  }
  std::sort(txns.begin(), txns.end());
  return txns;
}

}  // namespace

PaxosEngine::PaxosEngine(SiteId self, ItemStore* items, Scheduler* scheduler,
                         SendFn send, EngineConfig config)
    : self_(self),
      items_(items),
      scheduler_(scheduler),
      send_(std::move(send)),
      config_(config) {
  POLYV_CHECK(self.valid());
  POLYV_CHECK_GE(config_.cluster_sites, 1u);
  POLYV_CHECK_LE(self.value(), config_.cluster_sites);
  POLYV_CHECK_LT(self.value(), 1ULL << (64 - kTxnSiteShift));
}

PaxosEngine::~PaxosEngine() { *alive_ = false; }

Scheduler::TimerId PaxosEngine::ScheduleGuarded(double delay,
                                                std::function<void()> fn) {
  return scheduler_->ScheduleAfter(
      delay, [alive = alive_, fn = std::move(fn)] {
        if (*alive) {
          fn();
        }
      });
}

TxnId PaxosEngine::AllocateTxnId() {
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  return TxnId((self_.value() << kTxnSiteShift) | seq);
}

void PaxosEngine::RaiseSeqFloor(uint64_t max_seq) {
  uint64_t cur = next_seq_.load(std::memory_order_relaxed);
  while (max_seq >= cur &&
         !next_seq_.compare_exchange_weak(cur, max_seq + 1,
                                          std::memory_order_relaxed)) {
  }
}

SiteId PaxosEngine::CoordinatorOf(TxnId txn) {
  return TxnEngine::CoordinatorOf(txn);
}

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

TxnId PaxosEngine::Submit(TxnSpec spec, TxnCallback callback) {
  return Submit(std::move(spec), std::move(callback), AllocateTxnId());
}

TxnId PaxosEngine::Submit(TxnSpec spec, TxnCallback callback, TxnId txn) {
  Outbox out;
  SubmitUnderLock(std::move(spec), std::move(callback), txn, &out);
  FlushOutbox(&out);
  return txn;
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

void PaxosEngine::FlushOutbox(Outbox* out) {
  for (auto& [to, msg] : out->sends) {
    std::string payload = msg.Encode();
    if (const SiteId* site = std::get_if<SiteId>(&to)) {
      send_(*site, std::move(payload));
      continue;
    }
    for (size_t i = 0; i < config_.cluster_sites; ++i) {
      send_(SiteAt(i), payload);
    }
  }
  for (auto& thunk : out->thunks) {
    thunk();
  }
  out->sends.clear();
  out->thunks.clear();
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
  for (TxnId txn : SortedTxns(leaderships_)) {
    const Leadership& lead = leaderships_.at(txn);
    if (lead.timer != 0) {
      scheduler_->Cancel(lead.timer);
    }
    // In-flight clients never hear back — the real failure mode. With
    // Paxos Commit the *decision* still completes via failover; only
    // this site's client channel is lost.
  }
  leaderships_.clear();
  for (TxnId txn : SortedTxns(participations_)) {
    const Participation& part = participations_.at(txn);
    if (part.timer != 0) {
      scheduler_->Cancel(part.timer);
    }
    items_->CancelWaits(txn);
    (void)items_->UnlockAll(txn);
  }
  participations_.clear();
  // acceptor_, prepared_, decided_ survive: they are the durable state
  // Gray-Lamport requires of acceptors and prepared RMs.
}

void PaxosEngine::Recover() {
  Outbox out;
  {
    MutexLock lock(&mu_);
    crashed_ = false;
    Trace(TraceEventType::kRecover, TxnId());
    for (TxnId txn : SortedTxns(prepared_)) {
      const Prepared& prep = prepared_.at(txn);
      // The prepared writes are this RM's vote: re-guard them until the
      // outcome lands (same re-lock discipline as TxnEngine::Recover).
      Participation part;
      part.leader = prep.leader;
      part.state = PartState::kWait;
      part.group = prep.group;
      part.wait_entered_at = scheduler_->Now();
      for (const auto& [key, value] : prep.writes) {
        (void)items_->Lock(key, txn);
        part.locked_keys.push_back(key);
      }
      auto [it, inserted] = participations_.emplace(txn, std::move(part));
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

EngineMetrics PaxosEngine::metrics() const {
  MutexLock lock(&mu_);
  return metrics_;
}

std::optional<bool> PaxosEngine::DecidedOutcome(TxnId txn) const {
  MutexLock lock(&mu_);
  const auto it = decided_.find(txn);
  if (it == decided_.end()) {
    return std::nullopt;
  }
  return it->second;
}

uint64_t PaxosEngine::PromisedBallot(TxnId txn) const {
  MutexLock lock(&mu_);
  const auto it = acceptor_.find(txn);
  if (it == acceptor_.end()) {
    return 0;
  }
  return it->second.promised;
}

}  // namespace polyvalue

// Participant role of the 2PC leg: Figure 1's wait phase — vote READY,
// then leave on COMPLETE, ABORT, or the wait timeout, where the three
// in-doubt policies apply. The compute phase before it is shared
// (compute_phase.cc).
#include "src/txn/engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

namespace polyvalue {

void TxnEngine::Vote(TxnId txn, SiteId from, Participation* part,
                     const std::map<ItemKey, PolyValue>& writes,
                     Outbox* out) {
  // Vote READY. The vote is a promise: the writes must survive a crash,
  // so they go to the durable prepared set first (§3.1's wait phase).
  MarkPreparedDurable(txn, part->coordinator, writes);
  Trace(TraceEventType::kReadySent, txn, false, writes.size());
  out->sends.emplace_back(from, MakeReady(txn));

  // wait -> idle happens on COMPLETE, ABORT, or this timeout.
  part->timer = ScheduleGuarded(config_.wait_timeout,
                                [this, txn] { WaitTimeout(txn); });
}

void TxnEngine::HandleComplete(const Message& msg, Outbox* out) {
  auto it = participations_.find(msg.txn);
  if (it != participations_.end() &&
      it->second.state == PartState::kWait) {
    FinishParticipation(msg.txn, &it->second, /*commit=*/true, out);
    return;
  }
  // Late COMPLETE after the in-doubt policy already ran: treat it as
  // learning the outcome (reduces any polyvalues we installed).
  HandleLearnedOutcome(msg.txn, /*committed=*/true, out);
}

void TxnEngine::HandleAbort(const Message& msg, Outbox* out) {
  auto it = participations_.find(msg.txn);
  if (it != participations_.end()) {
    if (it->second.state == PartState::kCompute) {
      DiscardCompute(msg.txn, out);
      return;
    }
    FinishParticipation(msg.txn, &it->second, /*commit=*/false, out);
    return;
  }
  HandleLearnedOutcome(msg.txn, /*committed=*/false, out);
}

// Normal end of the wait phase: install (commit) or discard (abort),
// release locks, return to idle.
void TxnEngine::FinishParticipation(TxnId txn, Participation* part,
                                    bool commit, Outbox* out) {
  if (part->timer != 0) {
    scheduler_->Cancel(part->timer);
    part->timer = 0;
  }
  EndWaitPhase(part);
  if (commit) {
    for (const auto& [key, value] : prepared_.at(txn).writes) {
      InstallValue(key, value);
    }
  }
  ClearPreparedDurable(txn);
  ReleaseLocks(txn, out);
  blocked_.erase(txn);
  // Erase before learning: HandleLearnedOutcome finishes wait-state
  // participations, so the map entry must be gone to avoid recursion.
  participations_.erase(txn);
  // Record the outcome and do the §3.3 work — this site may hold items
  // whose polyvalues depend on txn (shipped to it earlier), and may owe
  // downstream notifications.
  HandleLearnedOutcome(txn, commit, out);
}

void TxnEngine::WaitTimeout(TxnId txn) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;
    }
    auto it = participations_.find(txn);
    if (it == participations_.end() ||
        it->second.state != PartState::kWait) {
      return;
    }
    ++metrics_.wait_timeouts;
    Trace(TraceEventType::kWaitTimeout, txn);
    ApplyInDoubtPolicy(txn, &it->second, &out);
  }
  FlushOutbox(&out);
}

// The heart of the reproduction: what a participant does when neither
// COMPLETE nor ABORT arrived promptly (§3.1's third way out of `wait`).
void TxnEngine::ApplyInDoubtPolicy(TxnId txn, Participation* part,
                                   Outbox* out) {
  switch (config_.policy) {
    case InDoubtPolicy::kPolyvalue: {
      // Install {⟨computed, T⟩, ⟨previous, ¬T⟩} for every written item,
      // release the locks, and return to idle. The outcome table already
      // tracks every dependency via InstallValue; the inquiry loop will
      // chase T's coordinator. The vulnerable window ends here: locks
      // release with the installs (§2.2 instrumentation).
      EndWaitPhase(part);
      const std::map<ItemKey, PolyValue>& writes = prepared_.at(txn).writes;
      for (const auto& [key, computed] : writes) {
        const Result<PolyValue> prev = items_->Read(key);
        const PolyValue previous =
            prev.ok() ? prev.value() : PolyValue::Certain(Value::Null());
        const PolyValue installed =
            PolyValue::InstallUncertain(txn, computed, previous);
        InstallValue(key, installed);
        ++metrics_.polyvalue_installs;
      }
      const uint64_t installs = writes.size();
      ClearPreparedDurable(txn);  // invalidates writes
      ReleaseLocks(txn, out);
      Trace(TraceEventType::kUncertainRelease, txn, false, installs);
      participations_.erase(txn);  // invalidates part
      out->thunks.push_back([this] { EnsureInquiryLoop(); });
      break;
    }
    case InDoubtPolicy::kBlock: {
      // Classic 2PC: hold every lock until the outcome is known. The
      // inquiry loop polls the coordinator; FinishParticipation runs from
      // HandleLearnedOutcome when the answer arrives.
      ++metrics_.blocked_holds;
      Trace(TraceEventType::kBlockedHold, txn);
      blocked_.insert(txn);
      out->thunks.push_back([this] { EnsureInquiryLoop(); });
      break;
    }
    case InDoubtPolicy::kArbitrary: {
      // Relaxed consistency (§2.3): guess commit and move on. Fast, but
      // if the coordinator actually aborted this violates atomicity —
      // the availability bench audits exactly that.
      ++metrics_.arbitrary_commits;
      Trace(TraceEventType::kArbitraryCommit, txn);
      FinishParticipation(txn, part, /*commit=*/true, out);
      break;
    }
  }
}

}  // namespace polyvalue

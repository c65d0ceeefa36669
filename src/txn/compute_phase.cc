// The compute phase every commit-protocol leg shares: Submit → PREPARE
// fan-out → lock + read at each participant → collect → execute the
// (poly)transaction → WRITE_REQ fan-out → the participant leaves
// `compute`. Each leg's hooks take over from there (engine.h).
#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/txn/engine.h"

namespace polyvalue {
namespace {

// The items a PREPARE asks this site to lock and read, sorted and
// deduplicated (a read-write item appears in both key lists).
std::vector<ItemKey> PrepareKeys(const Message& prepare) {
  std::vector<ItemKey> keys = prepare.read_keys;
  keys.insert(keys.end(), prepare.write_keys.begin(),
              prepare.write_keys.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace

CommitProtocol::CommitProtocol(SiteId self, ItemStore* items,
                               Scheduler* scheduler, SendFn send,
                               EngineConfig config)
    : self_(self),
      items_(items),
      scheduler_(scheduler),
      send_(std::move(send)),
      config_(config) {
  POLYV_CHECK(self.valid());
  POLYV_CHECK_LT(self.value(), 1ULL << (64 - kSiteShift));
}

Scheduler::TimerId CommitProtocol::ScheduleGuarded(double delay,
                                                   std::function<void()> fn) {
  return scheduler_->ScheduleAfter(
      delay, [alive = alive_, fn = std::move(fn)] {
        if (*alive) {
          fn();
        }
      });
}

TxnId CommitProtocol::AllocateTxnId() {
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  return TxnId((self_.value() << kSiteShift) | seq);
}

void CommitProtocol::RaiseSeqFloor(uint64_t max_seq) {
  uint64_t cur = next_seq_.load(std::memory_order_relaxed);
  while (max_seq >= cur &&
         !next_seq_.compare_exchange_weak(cur, max_seq + 1,
                                          std::memory_order_relaxed)) {
  }
}

SiteId CommitProtocol::CoordinatorOf(TxnId txn) {
  return SiteId(txn.value() >> kSiteShift);
}

TxnId CommitProtocol::Submit(TxnSpec spec, TxnCallback callback) {
  return Submit(std::move(spec), std::move(callback), AllocateTxnId());
}

TxnId CommitProtocol::Submit(TxnSpec spec, TxnCallback callback, TxnId txn) {
  POLYV_CHECK_MSG(CoordinatorOf(txn) == self_,
                  "txn id " << txn << " was not allocated by " << self_);
  Outbox out;
  SubmitUnderLock(std::move(spec), std::move(callback), txn, &out);
  FlushOutbox(&out);
  return txn;
}

void CommitProtocol::SubmitUnderLock(TxnSpec spec, TxnCallback callback,
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
  Coordination coord;
  coord.participants = spec.Participants();
  coord.callback = std::move(callback);

  if (config_.enable_local_fast_path && coord.participants.size() == 1 &&
      coord.participants.front() == self_ &&
      TryLocalFastPath(txn, spec, coord.callback, out)) {
    return;
  }

  if (coord.participants.empty()) {
    // Pure computation: execute immediately against an empty read set.
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
    out->thunks.push_back([cb = std::move(coord.callback), r] { cb(r); });
    return;
  }

  // Ask every participant to lock and read its share. Values of
  // write-set items are collected too: §3.2 needs each written item's
  // previous value as the fallback for non-writing alternatives, and
  // the participant needs it to build the ¬T half on a wait timeout.
  for (SiteId site : coord.participants) {
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
    coord.awaiting.insert(site);
    Message prepare =
        MakePrepare(txn, self_, std::move(reads), std::move(writes));
    FillPrepare(coord, &prepare);
    out->sends.emplace_back(site, std::move(prepare));
  }
  coord.spec = std::move(spec);
  coord.timer = ScheduleGuarded(config_.prepare_timeout,
                                [this, txn] { CollectTimeout(txn); });
  coordinations_.emplace(txn, std::move(coord));
}

void CommitProtocol::HandlePrepare(SiteId from, const Message& msg,
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
  Participation part;
  part.coordinator = msg.coordinator;
  part.state = PartState::kCompute;
  part.group = msg.group;
  part.compute_entered_at = scheduler_->Now();

  for (const ItemKey& key : PrepareKeys(msg)) {
    if (config_.lock_wait == LockWaitPolicy::kWaitDie) {
      switch (items_->LockOrQueue(key, txn)) {
        case ItemStore::LockAttempt::kGranted:
          break;
        case ItemStore::LockAttempt::kQueued:
          part.awaited_keys.insert(key);
          break;
        case ItemStore::LockAttempt::kRefused:
          ReleaseLocks(txn, out);
          TraceKey(TraceEventType::kPrepareRefused, txn, key);
          out->sends.emplace_back(
              msg.coordinator,
              MakePrepareRefusal(txn, "wait-die: younger than holder of '" +
                                          key + "'"));
          return;
      }
    } else {
      const Status lock_status = items_->Lock(key, txn);
      if (!lock_status.ok()) {
        ReleaseLocks(txn, out);
        TraceKey(TraceEventType::kPrepareRefused, txn, key);
        out->sends.emplace_back(
            msg.coordinator,
            MakePrepareRefusal(txn, lock_status.message()));
        return;
      }
    }
  }

  // compute-phase watchdog: if the coordinator dies before shipping
  // writes (or our queued locks never arrive), discard. We have not
  // voted, so unilateral abort is safe.
  part.timer = ScheduleGuarded(config_.prepare_timeout + config_.ready_timeout,
                               [this, txn] { ComputeWatchdog(txn); });

  const bool parked = !part.awaited_keys.empty();
  if (parked) {
    part.parked_prepare = std::make_unique<Message>(msg);
  }
  auto [it, inserted] = participations_.emplace(txn, std::move(part));
  POLYV_CHECK(inserted);
  Trace(TraceEventType::kPrepareRecv, txn, parked);
  if (parked) {
    ++metrics_.lock_waits;
    return;  // resumed from ReleaseLocks when the grants arrive
  }
  FinishPrepareReads(txn, &it->second, msg, out);
}

void CommitProtocol::FinishPrepareReads(TxnId txn, Participation* part,
                                        const Message& prepare,
                                        Outbox* out) {
  std::map<ItemKey, PolyValue> values;
  for (const ItemKey& key : PrepareKeys(prepare)) {
    Result<PolyValue> value = items_->Read(key);
    if (!value.ok()) {
      const bool is_write_only =
          std::find(prepare.read_keys.begin(), prepare.read_keys.end(),
                    key) == prepare.read_keys.end();
      if (is_write_only) {
        // Creating a new item: previous value is Null.
        values.emplace(key, PolyValue::Certain(Value::Null()));
        continue;
      }
      const SiteId coordinator = part->coordinator;
      if (part->timer != 0) {
        scheduler_->Cancel(part->timer);
      }
      participations_.erase(txn);  // invalidates part
      ReleaseLocks(txn, out);
      TraceKey(TraceEventType::kPrepareRefused, txn, key);
      out->sends.emplace_back(
          coordinator, MakePrepareRefusal(txn, value.status().message()));
      return;
    }
    TrackShipped(value.value(), part->coordinator);
    values.emplace(key, std::move(value).value());
  }
  part->prepare_replied = true;
  Trace(TraceEventType::kPrepareReplied, txn, /*flag=*/true);
  out->sends.emplace_back(part->coordinator,
                          MakePrepareReply(txn, std::move(values)));
}

void CommitProtocol::ReleaseLocks(TxnId txn, Outbox* out) {
  items_->CancelWaits(txn);
  const std::vector<ItemStore::Grant> grants = items_->UnlockAll(txn);
  for (const ItemStore::Grant& grant : grants) {
    auto it = participations_.find(grant.txn);
    if (it == participations_.end()) {
      // Granted to a transaction we no longer track (raced away): free
      // the lock again so it is not orphaned.
      ReleaseLocks(grant.txn, out);
      continue;
    }
    Participation& waiter = it->second;
    waiter.awaited_keys.erase(grant.key);
    if (waiter.awaited_keys.empty() &&
        waiter.state == PartState::kCompute && !waiter.prepare_replied) {
      ++metrics_.lock_wait_resumes;
      // The reads may retire the participation; keep the PREPARE alive.
      const std::unique_ptr<Message> prepare =
          std::move(waiter.parked_prepare);
      POLYV_CHECK(prepare != nullptr);  // only a parked PREPARE waits
      FinishPrepareReads(grant.txn, &waiter, *prepare, out);
    }
  }
}

void CommitProtocol::DiscardCompute(TxnId txn, Outbox* out) {
  auto it = participations_.find(txn);
  if (it->second.timer != 0) {
    scheduler_->Cancel(it->second.timer);
  }
  ReleaseLocks(txn, out);
  participations_.erase(txn);
  Trace(TraceEventType::kComputeDiscard, txn);
}

void CommitProtocol::ComputeWatchdog(TxnId txn) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;
    }
    auto it = participations_.find(txn);
    if (it == participations_.end() ||
        it->second.state != PartState::kCompute) {
      return;  // writes arrived (or the outcome already landed)
    }
    DiscardCompute(txn, &out);
  }
  FlushOutbox(&out);
}

void CommitProtocol::HandlePrepareReply(SiteId from, const Message& msg,
                                        Outbox* out) {
  auto it = coordinations_.find(msg.txn);
  if (it == coordinations_.end() ||
      it->second.phase != CoordPhase::kCollecting) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPrepareReply));
    return;  // stale (txn decided or already past the compute phase)
  }
  Coordination& coord = it->second;
  if (!msg.ok) {
    AbortComputePhase(msg.txn, &coord,
                      StrCat("participant ", from, " refused: ", msg.error),
                      out);
    return;
  }
  if (coord.awaiting.erase(from) == 0) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPrepareReply));
    return;  // duplicate
  }
  for (const auto& [key, value] : msg.values) {
    coord.collected.insert_or_assign(key, value);
  }
  Trace(TraceEventType::kVoteCollected, msg.txn,
        /*flag=*/coord.awaiting.empty(), coord.awaiting.size());
  if (!coord.awaiting.empty()) {
    return;
  }
  if (config_.execution_delay <= 0) {
    ExecuteAndShip(msg.txn, &coord, out);
    return;
  }
  // Simulated computation: ship after the configured execution time.
  const TxnId txn = msg.txn;
  ScheduleGuarded(config_.execution_delay, [this, txn] {
    Outbox delayed;
    {
      MutexLock lock(&mu_);
      if (crashed_) {
        return;
      }
      auto coord_it = coordinations_.find(txn);
      if (coord_it == coordinations_.end() ||
          coord_it->second.phase != CoordPhase::kCollecting ||
          !coord_it->second.awaiting.empty()) {
        return;  // aborted or otherwise progressed meanwhile
      }
      ExecuteAndShip(txn, &coord_it->second, &delayed);
    }
    FlushOutbox(&delayed);
  });
}

void CommitProtocol::CollectTimeout(TxnId txn) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;
    }
    auto it = coordinations_.find(txn);
    if (it == coordinations_.end() ||
        it->second.phase != CoordPhase::kCollecting) {
      return;  // already progressed
    }
    AbortComputePhase(txn, &it->second, "timeout collecting prepare replies",
                      &out);
  }
  FlushOutbox(&out);
}

void CommitProtocol::ExecuteAndShip(TxnId txn, Coordination* coord,
                                    Outbox* out) {
  scheduler_->Cancel(coord->timer);
  coord->timer = 0;

  // Split the collected values into logic inputs (read set) and previous
  // values (write set); a read-write item appears in both.
  std::map<ItemKey, PolyValue> inputs;
  std::map<ItemKey, PolyValue> previous;
  bool any_uncertain_input = false;
  for (const auto& [key, owner] : coord->spec.read_set) {
    auto it = coord->collected.find(key);
    POLYV_CHECK_MSG(it != coord->collected.end(),
                    "participant did not return read item '" << key << "'");
    any_uncertain_input |= !it->second.is_certain();
    inputs.emplace(key, it->second);
  }
  for (const auto& [key, owner] : coord->spec.write_set) {
    auto it = coord->collected.find(key);
    if (it != coord->collected.end()) {
      previous.emplace(key, it->second);
    }
  }

  PolyTxnOptions options;
  options.max_alternatives = config_.max_alternatives;
  Result<PolyTxnResult> result = ExecutePolyTransaction(
      inputs, previous, coord->spec.logic, options);
  if (!result.ok()) {
    AbortComputePhase(txn, coord, result.status().message(), out);
    return;
  }
  if (any_uncertain_input) {
    ++metrics_.polytxns;
    Trace(TraceEventType::kAlternativeFork, txn, false,
          result->alternatives_executed);
  }
  metrics_.alternatives_executed += result->alternatives_executed;
  coord->output = result->output;
  if (!coord->output.is_certain()) {
    ++metrics_.uncertain_outputs;
  }

  if (result->writes.empty()) {
    // Read-only: no atomic update needed. Release the participants'
    // locks (they have nothing pending) and report success.
    ReleaseParticipants(txn, coord->participants, out);
    AnswerClient(txn, coord, TxnDisposition::kReadOnly, "", out);
    return;
  }

  // Ship each site its writes. A shipped polyvalue that depends on some
  // unresolved T' obliges us (§3.3) to forward T' outcomes there.
  coord->phase = CoordPhase::kDeciding;
  for (SiteId site : coord->participants) {
    std::map<ItemKey, PolyValue> site_writes;
    for (const auto& [key, value] : result->writes) {
      auto owner = coord->spec.write_set.find(key);
      POLYV_CHECK_MSG(owner != coord->spec.write_set.end(),
                      "logic wrote undeclared item '" << key << "'");
      if (owner->second == site) {
        TrackShipped(value, site);
        site_writes.emplace(key, value);
      }
    }
    out->sends.emplace_back(site, MakeWriteReq(txn, std::move(site_writes)));
  }
  Trace(TraceEventType::kWriteShipped, txn, false, coord->participants.size());
  AwaitVotes(txn, coord, out);
}

void CommitProtocol::AbortComputePhase(TxnId txn, Coordination* coord,
                                       const std::string& reason,
                                       Outbox* out) {
  ReleaseParticipants(txn, coord->participants, out);
  AnswerClient(txn, coord, TxnDisposition::kAborted, reason, out);
}

void CommitProtocol::AnswerClient(TxnId txn, Coordination* coord,
                                  TxnDisposition disposition,
                                  const std::string& reason, Outbox* out) {
  if (coord->timer != 0) {
    scheduler_->Cancel(coord->timer);
    coord->timer = 0;
  }
  TxnResult r;
  r.id = txn;
  r.disposition = disposition;
  r.abort_reason = reason;
  switch (disposition) {
    case TxnDisposition::kCommitted:
      ++metrics_.txns_committed;
      r.output = coord->output;
      break;
    case TxnDisposition::kAborted:
      ++metrics_.txns_aborted;
      break;
    case TxnDisposition::kReadOnly:
      ++metrics_.txns_read_only;
      r.output = coord->output;
      break;
  }
  Trace(disposition == TxnDisposition::kCommitted
            ? TraceEventType::kDecisionCommit
            : disposition == TxnDisposition::kAborted
                  ? TraceEventType::kDecisionAbort
                  : TraceEventType::kReadOnlyDone,
        txn);
  out->thunks.push_back([cb = std::move(coord->callback), r] { cb(r); });
  coordinations_.erase(txn);  // invalidates coord
}

void CommitProtocol::HandleWriteReq(SiteId from, const Message& msg,
                                    Outbox* out) {
  const TxnId txn = msg.txn;
  auto it = participations_.find(txn);
  if (it == participations_.end() ||
      it->second.state != PartState::kCompute ||
      !it->second.prepare_replied) {
    Trace(TraceEventType::kMsgIgnored, txn, false,
          static_cast<uint64_t>(MsgType::kWriteReq));
    return;  // gave up on this transaction (or never replied): no vote
  }
  Participation& part = it->second;
  if (part.timer != 0) {
    scheduler_->Cancel(part.timer);
    part.timer = 0;
  }
  part.state = PartState::kWait;
  part.wait_entered_at = scheduler_->Now();
  metrics_.compute_phase_seconds +=
      part.wait_entered_at - part.compute_entered_at;
  ++metrics_.compute_phase_count;
  Vote(txn, from, &part, msg.writes, out);
}

void CommitProtocol::EndWaitPhase(Participation* part) {
  if (part->state != PartState::kWait || part->wait_entered_at <= 0) {
    return;
  }
  const double waited = scheduler_->Now() - part->wait_entered_at;
  metrics_.wait_phase_seconds += waited;
  ++metrics_.wait_phase_count;
  metrics_.wait_phase_max = std::max(metrics_.wait_phase_max, waited);
  part->wait_entered_at = 0;
}

CommitProtocol::Participation CommitProtocol::RelockPrepared(
    TxnId txn, const Prepared& prepared) {
  Participation part;
  part.coordinator = prepared.coordinator;
  part.state = PartState::kWait;
  part.group = prepared.group;
  // Re-acquire the write locks the crash released: a vote that later
  // resolves to COMMIT installs these writes, and without the locks an
  // interleaved transaction could be silently overwritten (lost
  // update). Immediately after recovery nothing else can hold them.
  for (const auto& [key, value] : prepared.writes) {
    const Status locked = items_->Lock(key, txn);
    POLYV_CHECK_MSG(locked.ok(), "post-recovery relock failed for '"
                                     << key << "': " << locked);
  }
  return part;
}

void CommitProtocol::DropComputeState() {
  for (auto& [txn, coord] : coordinations_) {
    if (coord.timer != 0) {
      scheduler_->Cancel(coord.timer);
    }
  }
  coordinations_.clear();
  for (auto& [txn, part] : participations_) {
    if (part.timer != 0) {
      scheduler_->Cancel(part.timer);
    }
    items_->CancelWaits(txn);
    (void)items_->UnlockAll(txn);
  }
  participations_.clear();
}

void CommitProtocol::FlushOutbox(Outbox* out) {
  // Durability barrier: nothing externally visible — no message, no
  // client callback — leaves this engine until every WAL record logged
  // so far is as durable as the sync policy promises. The records
  // appended during the locked section (and by concurrent transactions)
  // leave in one physical write, performed here, outside the engine
  // lock: one fflush under kFlushOnly, one batch frame + fsync under
  // group commit. Only kEveryAppend, which syncs each append, makes it
  // a no-op.
  if (wal_ != nullptr && !(out->sends.empty() && out->thunks.empty())) {
    const Status s = wal_->Flush();
    if (!s.ok()) {
      POLYV_ERROR << self_ << " WAL flush failed: " << s;
    }
  }
  for (auto& [to, msg] : out->sends) {
    std::string payload = msg.Encode();
    if (const SiteId* site = std::get_if<SiteId>(&to)) {
      send_(*site, std::move(payload));
      continue;
    }
    for (size_t i = 0; i < config_.cluster_sites; ++i) {
      send_(SiteId(i + 1), payload);
    }
  }
  for (auto& thunk : out->thunks) {
    thunk();
  }
  out->sends.clear();
  out->thunks.clear();
}

EngineMetrics CommitProtocol::metrics() const {
  MutexLock lock(&mu_);
  return metrics_;
}

std::optional<bool> CommitProtocol::DecidedOutcome(TxnId txn) const {
  MutexLock lock(&mu_);
  const auto it = decided_.find(txn);
  if (it == decided_.end()) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace polyvalue

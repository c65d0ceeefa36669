// Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"): the
// third protocol leg, beside blocking 2PC and the polyvalue engine.
//
// 2PC's in-doubt window exists because one process — the coordinator —
// holds the only copy of the commit decision while participants sit
// prepared. Paxos Commit replicates that decision instead: each
// participant RM's Prepared/Aborted vote is the value of one Paxos
// consensus instance run across 2F+1 acceptors (here: every site), and
// the global outcome is commit iff every instance chooses Prepared. A
// crashed leader delays nothing for long — any site can become the
// leader of a higher ballot, read the acceptors' state, and finish the
// decision. The window the polyvalue mechanism exists to tolerate never
// opens (beyond one failover timeout), at the price of 2F+1-way message
// amplification on every commit.
//
// Protocol flow (nominal, per transaction):
//
//   1. compute phase — identical wire messages to 2PC: the leader
//      (the submitting site) fans out PREPARE, RMs lock + read + reply,
//      the leader executes the logic and ships WRITE_REQ per RM. The
//      PREPARE carries the RM group so every vote can embed it.
//   2. vote — each RM durably saves its writes and broadcasts
//      Phase2a(ballot 0, Prepared) for its own instance to all
//      acceptors; ballot 0 belongs to the RM itself, so no Phase1 is
//      needed (the Gray-Lamport "free" round).
//   3. tally — acceptors accept and echo Phase2b to the ballot's
//      leader; a majority for an instance makes its value *chosen*.
//      When every instance in the group has chosen Prepared, the
//      leader fixes COMMIT, records it durably, answers the client and
//      broadcasts PAXOS_DECISION to every site.
//
// Failover: after voting, each RM runs a timer; on expiry it nudges the
// next site in ring order (PAXOS_NUDGE). A nudged site runs a classic
// recovery round with a self-owned ballot b = round*N + index:
// Phase1a(b) to all acceptors, a majority of Phase1b promises, then
// Phase2a(b, v) per instance where v is the highest-ballot accepted
// value reported — or Aborted if the majority saw none (safe: its
// promises block any older ballot from ever completing). Ballots are
// partitioned by site, so two concurrent recovery leaders can never
// collide on a ballot; Paxos safety guarantees all deciders agree.
//
// Same engine idiom as TxnEngine: one mutex, every handler defers sends
// and callbacks into an Outbox flushed after unlock, timers are guarded
// by a liveness token, and acceptor state + prepared writes + decisions
// are durable-by-contract (they survive Crash()).
#ifndef SRC_PAXOS_PAXOS_ENGINE_H_
#define SRC_PAXOS_PAXOS_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/obs/trace.h"
#include "src/store/item_store.h"
#include "src/txn/engine.h"
#include "src/txn/messages.h"
#include "src/txn/scheduler.h"
#include "src/txn/txn_types.h"

namespace polyvalue {

class PaxosEngine : public CommitProtocol {
 public:
  // Hands one encoded message to the transport.
  using SendFn = std::function<void(SiteId to, std::string payload)>;

  // `config.cluster_sites` must name the full cluster size N (sites
  // 1..N are all acceptors; majority = N/2 + 1).
  PaxosEngine(SiteId self, ItemStore* items, Scheduler* scheduler,
              SendFn send, EngineConfig config);
  ~PaxosEngine() override;

  // Optional observability; same cost contract as TxnEngine.
  void AttachTrace(TraceSink* sink) {
    MutexLock lock(&mu_);
    trace_ = sink;
  }

  SiteId self() const { return self_; }
  const EngineConfig& config() const { return config_; }

  // Txn ids share the TxnEngine encoding (coordinator in the high bits),
  // so ring-order failover can always locate the initial leader.
  TxnId AllocateTxnId();
  static SiteId CoordinatorOf(TxnId txn);
  void RaiseSeqFloor(uint64_t max_seq);

  // --- CommitProtocol ---
  TxnId Submit(TxnSpec spec, TxnCallback callback) override;
  TxnId Submit(TxnSpec spec, TxnCallback callback, TxnId txn);
  void OnMessage(SiteId from, const Message& msg) override;
  void Crash() override;
  void Recover() override;
  EngineMetrics metrics() const override;
  std::optional<bool> DecidedOutcome(TxnId txn) const override;

  // Acceptor-side introspection for tests: the highest ballot this
  // site has promised for `txn` (0 if it never promised).
  uint64_t PromisedBallot(TxnId txn) const;

 private:
  // ---- leader state ----
  // One Leadership drives a transaction at whichever site is currently
  // pushing it: the submitting site (ballot 0, with the client spec) or
  // a standby running a recovery ballot (no spec, no client).
  enum class LeaderPhase {
    kCollecting,  // compute phase: awaiting PREPARE_REPLYs
    kRecovering,  // Phase1a sent: awaiting a majority of promises
    kVoting,      // Phase2a round live: tallying Phase2b per instance
  };
  struct Leadership {
    TxnSpec spec;
    bool has_spec = false;  // recovery leaderships carry no client
    LeaderPhase phase = LeaderPhase::kCollecting;
    std::vector<SiteId> participants;  // the RM group (instance set)
    std::set<SiteId> awaiting;         // PREPARE_REPLYs outstanding
    std::map<ItemKey, PolyValue> collected;
    TxnCallback callback;
    Scheduler::TimerId timer = 0;
    PolyValue output;
    // The ballot this leadership currently runs: 0 for the initial
    // leader's tally of the RMs' own votes, round*N + index for
    // recovery rounds.
    uint64_t ballot = 0;
    uint64_t round = 0;
    // Phase1b bookkeeping (recovery only).
    std::set<SiteId> promised_from;
    std::map<SiteId, std::pair<uint64_t, bool>> best_accepted;
    // Phase2b tally for `ballot`: value proposed per instance, the
    // acceptors that echoed it, and the instances already chosen.
    std::map<SiteId, bool> proposed;
    std::map<SiteId, std::set<SiteId>> acks;
    std::set<SiteId> chosen;
  };

  // ---- RM state (volatile; prepared writes live in prepared_) ----
  enum class PartState { kCompute, kWait };
  struct Participation {
    SiteId leader;
    PartState state = PartState::kCompute;
    std::vector<SiteId> group;
    std::vector<ItemKey> locked_keys;
    Scheduler::TimerId timer = 0;  // compute watchdog, then failover
    int attempt = 0;               // failover ring position
    double compute_entered_at = 0;
    double wait_entered_at = 0;
  };

  // ---- acceptor state (durable-by-contract) ----
  struct AcceptorTxn {
    uint64_t promised = 0;
    // instance rm -> (ballot, prepared) it last accepted.
    std::map<SiteId, std::pair<uint64_t, bool>> accepted;
    std::vector<SiteId> group;
  };

  // ---- RM durable votes ----
  struct Prepared {
    SiteId leader;
    std::vector<SiteId> group;
    std::map<ItemKey, PolyValue> writes;
  };

  // Destination of a broadcast: every site 1..N, in ascending order.
  struct AllSites {};
  struct Outbox {
    // A broadcast is one entry, encoded once at flush.
    std::vector<std::pair<std::variant<SiteId, AllSites>, Message>> sends;
    std::vector<std::function<void()>> thunks;
  };

  // -- leader internals (paxos_leader.cc) --
  void SubmitUnderLock(TxnSpec spec, TxnCallback callback, TxnId txn,
                       Outbox* out) EXCLUDES(mu_);
  void HandlePrepareReply(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void ExecuteAndShip(TxnId txn, Leadership* lead, Outbox* out)
      REQUIRES(mu_);
  // Compute-phase abort: no RM has voted yet, so no instance can ever
  // choose Prepared — deciding ABORT locally is safe.
  void AbortBeforeVotes(TxnId txn, Leadership* lead,
                        const std::string& reason, Outbox* out)
      REQUIRES(mu_);
  void HandlePhase1b(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void HandlePhase2b(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  // Starts (or escalates) a recovery ballot for `txn`; `group_hint`
  // seeds the instance set until Phase1b reports refine it.
  void StartRecovery(TxnId txn, const std::vector<SiteId>& group_hint,
                     Outbox* out) REQUIRES(mu_);
  // All instances chosen: fix the outcome, tell the world.
  void FinishTally(TxnId txn, Leadership* lead, Outbox* out) REQUIRES(mu_);
  void DeliverClientResult(TxnId txn, Leadership* lead, bool commit,
                           const std::string& reason, Outbox* out)
      REQUIRES(mu_);
  void LeaderTimeout(TxnId txn);

  // -- RM + acceptor internals (paxos_acceptor.cc) --
  void HandlePrepare(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void HandleWriteReq(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void HandlePhase1a(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void HandlePhase2a(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void HandleDecision(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void HandleNudge(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  // Applies a learned outcome at this site: installs or discards the
  // prepared writes, releases locks, stops failover timers.
  void ApplyOutcome(TxnId txn, bool committed, Outbox* out) REQUIRES(mu_);
  void ReleaseLocks(TxnId txn, Outbox* out) REQUIRES(mu_);
  void FailoverTick(TxnId txn);
  void ComputeWatchdog(TxnId txn);
  // Broadcasts this RM's Phase2a(ballot 0, Prepared) to every acceptor
  // and arms the failover timer.
  void VoteAndArm(TxnId txn, Participation* part, Outbox* out)
      REQUIRES(mu_);

  // -- shared internals (paxos_engine.cc) --
  void RecordDecision(TxnId txn, bool committed) REQUIRES(mu_);
  void BroadcastDecision(TxnId txn, bool committed, Outbox* out)
      REQUIRES(mu_);
  void FlushOutbox(Outbox* out) EXCLUDES(mu_);
  Scheduler::TimerId ScheduleGuarded(double delay, std::function<void()> fn);

  size_t Majority() const { return config_.cluster_sites / 2 + 1; }
  SiteId SiteAt(size_t index) const { return SiteId(index + 1); }
  // The site a ballot belongs to: ballot 0 is the initial leader's
  // (encoded in the txn id); recovery ballots encode their owner.
  SiteId BallotOwner(TxnId txn, uint64_t ballot) const;
  uint64_t RecoveryBallot(uint64_t round) const;
  // Ring order for failover: attempt k nudges the k-th site after the
  // initial leader (wrapping; k = N retries the leader itself).
  SiteId StandbyLeader(TxnId txn, int attempt) const;

  // Trace emission; null check first, same cost contract as TxnEngine.
  void Trace(TraceEventType type, TxnId txn, bool flag = false,
             uint64_t arg = 0) REQUIRES(mu_) {
    if (trace_ == nullptr) {
      return;
    }
    TraceEvent event;
    event.time = scheduler_->Now();
    event.type = type;
    event.site = self_;
    event.txn = txn;
    event.flag = flag;
    event.arg = arg;
    trace_->Emit(event);
  }
  void Trace(TraceEventType type, TxnId txn, SiteId peer, bool flag,
             uint64_t arg) REQUIRES(mu_) {
    if (trace_ == nullptr) {
      return;
    }
    TraceEvent event;
    event.time = scheduler_->Now();
    event.type = type;
    event.site = self_;
    event.txn = txn;
    event.peer = peer;
    event.flag = flag;
    event.arg = arg;
    trace_->Emit(event);
  }

  const SiteId self_;
  ItemStore* const items_;
  Scheduler* const scheduler_;
  const SendFn send_;
  const EngineConfig config_;
  TraceSink* trace_ GUARDED_BY(mu_) = nullptr;

  mutable Mutex mu_ POLYV_MUTEX_RANK(kPaxosEngine);
  std::atomic<uint64_t> next_seq_{1};
  // Hashed, since every site is an acceptor for every transaction and
  // acceptor_ and decided_ never shrink. Loops whose order reaches a
  // send, a lock release or a trace walk SortedTxns() instead.
  std::unordered_map<TxnId, Leadership> leaderships_ GUARDED_BY(mu_);
  std::unordered_map<TxnId, Participation> participations_ GUARDED_BY(mu_);

  // Durable-by-contract (survive Crash): acceptor promises/accepts,
  // RM prepared writes, and learned/decided outcomes.
  std::unordered_map<TxnId, AcceptorTxn> acceptor_ GUARDED_BY(mu_);
  std::unordered_map<TxnId, Prepared> prepared_ GUARDED_BY(mu_);
  std::unordered_map<TxnId, bool> decided_ GUARDED_BY(mu_);

  bool crashed_ GUARDED_BY(mu_) = false;
  EngineMetrics metrics_ GUARDED_BY(mu_);
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace polyvalue

#endif  // SRC_PAXOS_PAXOS_ENGINE_H_

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
//   1. compute phase — the CommitProtocol base's, shared with 2PC (lock
//      + read at each RM, collect, execute, ship WRITE_REQ per RM; same
//      lock discipline, same execution_delay). The only leg-specific
//      part is the PREPARE, which carries the RM group so every vote
//      can embed it.
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
// Same engine idiom as TxnEngine (both are CommitProtocol legs): one
// mutex, every handler defers sends and callbacks into an Outbox flushed
// after unlock, timers are guarded by a liveness token, and acceptor
// state + prepared writes + decisions are durable-by-contract (they
// survive Crash()).
#ifndef SRC_PAXOS_PAXOS_ENGINE_H_
#define SRC_PAXOS_PAXOS_ENGINE_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/txn/engine.h"

namespace polyvalue {

class PaxosEngine : public CommitProtocol {
 public:
  // `config.cluster_sites` must name the full cluster size N (sites
  // 1..N are all acceptors; majority = N/2 + 1).
  PaxosEngine(SiteId self, ItemStore* items, Scheduler* scheduler,
              SendFn send, EngineConfig config);
  ~PaxosEngine() override;

  void OnMessage(SiteId from, const Message& msg) override;
  void Crash() override;
  void Recover() override;

 private:
  // ---- ballot state ----
  // One Leadership tallies a transaction's votes at whichever site is
  // currently pushing it: the submitting site (ballot 0, whose client
  // waits in the base's coordination) or a standby running a recovery
  // ballot.
  enum class LeaderPhase {
    kRecovering,  // Phase1a sent: awaiting a majority of promises
    kVoting,      // Phase2a round live: tallying Phase2b per instance
  };
  struct Leadership {
    LeaderPhase phase = LeaderPhase::kVoting;
    std::vector<SiteId> participants;  // the RM group (instance set)
    Scheduler::TimerId timer = 0;
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

  // ---- acceptor state (durable-by-contract) ----
  struct AcceptorTxn {
    uint64_t promised = 0;
    // instance rm -> (ballot, prepared) it last accepted.
    std::map<SiteId, std::pair<uint64_t, bool>> accepted;
    std::vector<SiteId> group;
  };

  // -- decision half, leader side (paxos_leader.cc) --
  // A decision without a vote: Paxos Commit has none.
  bool TryLocalFastPath(TxnId txn, const TxnSpec& spec,
                        const TxnCallback& callback, Outbox* out) override
      REQUIRES(mu_);
  void FillPrepare(const Coordination& coord, Message* prepare) override
      REQUIRES(mu_);
  // Compute-phase end without a commit: no RM has voted yet, so no
  // instance can ever choose Prepared — deciding ABORT locally is safe.
  void ReleaseParticipants(TxnId txn, const std::vector<SiteId>& participants,
                           Outbox* out) override REQUIRES(mu_);
  void AwaitVotes(TxnId txn, Coordination* coord, Outbox* out) override
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
  // Retires this site's tally for a decided `txn` and answers its client,
  // if the client waits here.
  void EndLeadership(TxnId txn, bool commit, const std::string& reason,
                     Outbox* out) REQUIRES(mu_);
  void LeaderTimeout(TxnId txn);

  // -- decision half, RM + acceptor side (paxos_acceptor.cc) --
  void TrackShipped(const PolyValue& value, SiteId to) override
      REQUIRES(mu_);
  void Vote(TxnId txn, SiteId from, Participation* part,
            const std::map<ItemKey, PolyValue>& writes, Outbox* out) override
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
  void FailoverTick(TxnId txn);
  // Broadcasts this RM's Phase2a(ballot 0, Prepared) to every acceptor
  // and arms the failover timer.
  void VoteAndArm(TxnId txn, Participation* part, Outbox* out)
      REQUIRES(mu_);

  // -- shared internals (paxos_engine.cc) --
  void RecordDecision(TxnId txn, bool committed) REQUIRES(mu_);
  void BroadcastDecision(TxnId txn, bool committed, Outbox* out)
      REQUIRES(mu_);

  size_t Majority() const { return config_.cluster_sites / 2 + 1; }
  SiteId SiteAt(size_t index) const { return SiteId(index + 1); }
  // The site a ballot belongs to: ballot 0 is the initial leader's
  // (encoded in the txn id); recovery ballots encode their owner.
  SiteId BallotOwner(TxnId txn, uint64_t ballot) const;
  uint64_t RecoveryBallot(uint64_t round) const;
  // Ring order for failover: attempt k nudges the k-th site after the
  // initial leader (wrapping; k = N retries the leader itself).
  SiteId StandbyLeader(TxnId txn, int attempt) const;

  // Hashed, since every site is an acceptor for every transaction and
  // acceptor_ never shrinks.
  std::unordered_map<TxnId, Leadership> leaderships_ GUARDED_BY(mu_);
  // Durable-by-contract (survives Crash): acceptor promises/accepts.
  std::unordered_map<TxnId, AcceptorTxn> acceptor_ GUARDED_BY(mu_);
};

}  // namespace polyvalue

#endif  // SRC_PAXOS_PAXOS_ENGINE_H_

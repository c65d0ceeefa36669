// Property test for the Paxos Commit leg: across many seeds, wide
// message-delay jitter, random drops, and leader/standby crashes, one
// consensus instance never chooses two different values, all deciders
// fix the same outcome, and the trace honours every auditor invariant
// (including A9 ballot monotonicity and A10/A11 agreement). Run under
// ASan/TSan like the rest of the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/obs/audit.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

struct RunOutcome {
  std::vector<std::optional<bool>> per_site;  // DecidedOutcome at each site
  std::optional<TxnResult> client;
};

SimCluster::Options HarshOptions(uint64_t seed) {
  SimCluster::Options options;
  options.site_count = 5;
  options.seed = seed;
  options.engine.leg = ProtocolLeg::kPaxosCommit;
  options.engine.prepare_timeout = 0.15;
  options.engine.ready_timeout = 0.15;
  options.engine.paxos_failover_timeout = 0.08;
  // Wide jitter: a 30x delay spread reorders every protocol phase.
  options.min_delay = 0.001;
  options.max_delay = 0.03;
  return options;
}

TxnSpec CrossSiteSpec(SimCluster& cluster, int delta) {
  TxnSpec spec;
  spec.ReadWrite("a", cluster.site_id(0));
  spec.ReadWrite("b", cluster.site_id(1));
  spec.ReadWrite("c", cluster.site_id(2));
  spec.Logic([delta](const TxnReads& reads) {
    TxnEffect e;
    e.writes["a"] = Value::Int(reads.IntAt("a") + delta);
    e.writes["b"] = Value::Int(reads.IntAt("b") - delta);
    e.writes["c"] = Value::Int(reads.IntAt("c") + 1);
    e.output = Value::Int(reads.IntAt("c"));
    return e;
  });
  return spec;
}

// Every site that knows an outcome must know the SAME outcome, and if
// the client heard commit/abort the sites must agree with it.
void CheckAgreement(SimCluster& cluster, TxnId txn,
                    const std::optional<TxnResult>& client) {
  std::optional<bool> consensus;
  for (size_t i = 0; i < cluster.size(); ++i) {
    const std::optional<bool> outcome = cluster.site(i).DecidedOutcome(txn);
    if (!outcome.has_value()) {
      continue;
    }
    if (consensus.has_value()) {
      EXPECT_EQ(*consensus, *outcome)
          << "site " << i + 1 << " disagrees on " << ToString(txn);
    } else {
      consensus = outcome;
    }
  }
  if (client.has_value() &&
      client->disposition != TxnDisposition::kReadOnly &&
      consensus.has_value()) {
    EXPECT_EQ(client->committed(), *consensus)
        << "client result contradicts the cluster for " << ToString(txn);
  }
}

TEST(PaxosPropertyTest, JitteredInterleavingsNeverSplitDecisions) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    VectorTraceSink trace;
    SimCluster::Options options = HarshOptions(seed);
    options.trace = &trace;
    SimCluster cluster(options);
    cluster.Load(0, "a", Value::Int(100));
    cluster.Load(1, "b", Value::Int(100));
    cluster.Load(2, "c", Value::Int(0));

    std::vector<TxnId> txns;
    std::vector<std::optional<TxnResult>> results(4);
    for (int t = 0; t < 4; ++t) {
      const size_t coordinator = t % cluster.size();
      auto* slot = &results[t];
      txns.push_back(cluster.Submit(coordinator,
                                    CrossSiteSpec(cluster, t + 1),
                                    [slot](const TxnResult& r) {
                                      *slot = r;
                                    }));
      cluster.RunFor(0.05);  // overlap the protocols, don't serialise
    }
    cluster.RunFor(5.0);

    for (size_t t = 0; t < txns.size(); ++t) {
      SCOPED_TRACE(t);
      ASSERT_TRUE(results[t].has_value());
      CheckAgreement(cluster, txns[t], results[t]);
    }
    const Status audit = TraceAuditor::Check(trace.Snapshot());
    EXPECT_TRUE(audit.ok()) << audit.message();
  }
}

TEST(PaxosPropertyTest, DropsAndCrashesNeverSplitDecisions) {
  for (uint64_t seed = 100; seed < 130; ++seed) {
    SCOPED_TRACE(seed);
    VectorTraceSink trace;
    SimCluster::Options options = HarshOptions(seed);
    options.trace = &trace;
    SimCluster cluster(options);
    cluster.Load(0, "a", Value::Int(100));
    cluster.Load(1, "b", Value::Int(100));
    cluster.Load(2, "c", Value::Int(0));

    // 10% message loss the whole run: votes, echoes, and decisions all
    // get lost; failover timers and re-nudges must converge anyway.
    cluster.faults().SetDropProbability(0.1);

    std::optional<TxnResult> result;
    const TxnId txn = cluster.Submit(0, CrossSiteSpec(cluster, 7),
                                     [&result](const TxnResult& r) {
                                       result = r;
                                     });
    // Crash the leader mid-protocol and the first standby a beat later:
    // the second standby (or any nudged survivor) must finish. The
    // crash time sweeps from before the prepares land to after the RMs
    // have voted, so both the evaporate and the failover-completes
    // regimes are exercised.
    const double leader_crash = 0.05 + (seed % 10) * 0.03;
    cluster.sim().At(leader_crash, [&cluster] { cluster.CrashSite(0); });
    cluster.sim().At(leader_crash + 0.1,
                     [&cluster] { cluster.CrashSite(1); });
    cluster.RunFor(4.0);
    cluster.RecoverSite(0);
    cluster.RecoverSite(1);
    cluster.faults().SetDropProbability(0.0);
    cluster.RunFor(6.0);

    // The crash may land before any RM voted — then the transaction
    // legitimately evaporates (watchdogs discard, nothing decides). The
    // invariants that must hold regardless: every decider agrees, the
    // writes are all-or-nothing across sites, and no lock outlives the
    // drain (a prepared RM re-nudges standbys until an outcome lands).
    CheckAgreement(cluster, txn, result);
    const int64_t a =
        cluster.site(0).Peek("a")->certain_value().int_value();
    const int64_t b =
        cluster.site(1).Peek("b")->certain_value().int_value();
    const int64_t c =
        cluster.site(2).Peek("c")->certain_value().int_value();
    EXPECT_EQ(a + b, 200) << "transfer was torn across sites";
    EXPECT_TRUE((a == 107 && b == 93 && c == 1) ||
                (a == 100 && b == 100 && c == 0))
        << "partial installation: a=" << a << " b=" << b << " c=" << c;
    for (size_t i = 0; i < cluster.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(cluster.site(i).store().locked_count(), 0u);
    }

    AuditOptions audit_options;
    audit_options.expect_quiescent = false;  // client orphaned by crash
    const Status audit = TraceAuditor::Check(trace.Snapshot(),
                                             audit_options);
    EXPECT_TRUE(audit.ok()) << audit.message();
  }
}

// A transaction whose locks collide with an in-flight one is refused
// no-wait and aborts before any vote; the winning transaction still
// commits, and nothing deadlocks or stalls.
TEST(PaxosPropertyTest, ContentionAbortsBeforeVotesAreSafe) {
  for (uint64_t seed = 200; seed < 215; ++seed) {
    SCOPED_TRACE(seed);
    VectorTraceSink trace;
    SimCluster::Options options = HarshOptions(seed);
    options.trace = &trace;
    SimCluster cluster(options);
    cluster.Load(0, "a", Value::Int(100));
    cluster.Load(1, "b", Value::Int(100));
    cluster.Load(2, "c", Value::Int(0));

    std::vector<TxnId> txns;
    std::vector<std::optional<TxnResult>> results(6);
    // Give the first transaction a head start: by t=0.1 its prepares
    // have landed and its locks are held at every site, so the five
    // contenders submitted next are refused no-wait and must abort
    // before casting any vote. (Submitting all six at once can mutually
    // kill every transaction — legal under no-wait locking, but then
    // there is no commit to assert on.)
    auto submit = [&](int t) {
      auto* slot = &results[t];
      txns.push_back(cluster.Submit(t % cluster.size(),
                                    CrossSiteSpec(cluster, 1),
                                    [slot](const TxnResult& r) {
                                      *slot = r;
                                    }));
    };
    submit(0);
    cluster.RunFor(0.1);
    for (int t = 1; t < 6; ++t) {
      submit(t);
    }
    cluster.RunFor(8.0);

    int committed = 0;
    for (size_t t = 0; t < txns.size(); ++t) {
      SCOPED_TRACE(t);
      ASSERT_TRUE(results[t].has_value());
      committed += results[t]->committed() ? 1 : 0;
      CheckAgreement(cluster, txns[t], results[t]);
    }
    EXPECT_GE(committed, 1) << "contention livelocked every transaction";
    // a + b is conserved by every committed transfer.
    EXPECT_EQ(
        cluster.site(0).Peek("a")->certain_value().int_value() +
            cluster.site(1).Peek("b")->certain_value().int_value(),
        200);
    for (size_t i = 0; i < cluster.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(cluster.site(i).store().locked_count(), 0u);
    }
    const Status audit = TraceAuditor::Check(trace.Snapshot());
    EXPECT_TRUE(audit.ok()) << audit.message();
  }
}

// Runs three transactions whose RM at site 2 votes but never hears the
// decision (every link into site 2 is cut right after the votes leave),
// then crashes and recovers site 2. Returns the whole trace.
std::vector<TraceEvent> RecoverWithUndecidedVotes() {
  VectorTraceSink trace;
  SimCluster::Options options;
  options.site_count = 3;
  options.seed = 11;
  options.min_delay = 0.001;
  options.max_delay = 0.001;
  options.engine.leg = ProtocolLeg::kPaxosCommit;
  options.engine.paxos_failover_timeout = 0.05;
  options.trace = &trace;
  SimCluster cluster(options);
  // Coordinators alternate between sites 1 and 3, so the txn ids do
  // not ascend in submit order.
  const size_t coordinators[] = {2, 0, 2};
  for (int t = 0; t < 3; ++t) {
    const ItemKey rm_key = "rm" + std::to_string(t);
    const ItemKey other_key = "other" + std::to_string(t);
    cluster.Load(1, rm_key, Value::Int(0));
    cluster.Load(coordinators[t], other_key, Value::Int(0));
    TxnSpec spec;
    spec.ReadWrite(rm_key, cluster.site_id(1));
    spec.ReadWrite(other_key, cluster.site_id(coordinators[t]));
    spec.Logic([rm_key, other_key](const TxnReads& reads) {
      TxnEffect e;
      e.writes[rm_key] = Value::Int(reads.IntAt(rm_key) + 1);
      e.writes[other_key] = Value::Int(reads.IntAt(other_key) + 1);
      return e;
    });
    cluster.Submit(coordinators[t], std::move(spec), [](const TxnResult&) {});
  }
  // PREPARE, reply and WRITE_REQ take 1 ms each: the RMs vote at 3 ms,
  // and the decisions would reach site 2 at 6 ms.
  cluster.sim().At(0.0045, [&cluster] {
    cluster.faults().SetOneWayDown(cluster.site_id(0), cluster.site_id(1),
                                   true);
    cluster.faults().SetOneWayDown(cluster.site_id(2), cluster.site_id(1),
                                   true);
  });
  cluster.RunFor(0.3);
  EXPECT_GE(cluster.site(1).store().locked_count(), 3u)
      << "site 2 learned an outcome before the crash";
  cluster.CrashSite(1);
  cluster.faults().HealLinks();
  cluster.RecoverSite(1);
  cluster.RunFor(2.0);
  for (size_t i = 0; i < cluster.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(cluster.site(i).store().locked_count(), 0u);
  }
  return trace.Snapshot();
}

// Recovery re-votes every prepared transaction. Its order reaches the
// wire and the trace, so it must be ascending txn id however the
// engine's tables are laid out, and identical from run to run.
TEST(PaxosPropertyTest, RecoveryRevotesInTxnOrder) {
  const std::vector<TraceEvent> events = RecoverWithUndecidedVotes();
  const SiteId rm(2);
  auto recover = std::find_if(events.begin(), events.end(),
                              [rm](const TraceEvent& e) {
                                return e.type == TraceEventType::kRecover &&
                                       e.site == rm;
                              });
  ASSERT_NE(recover, events.end());
  std::vector<TxnId> revotes;
  for (auto it = recover; it != events.end(); ++it) {
    if (it->type == TraceEventType::kPaxosVote && it->site == rm) {
      revotes.push_back(it->txn);
    }
  }
  ASSERT_EQ(revotes.size(), 3u);
  for (size_t i = 1; i < revotes.size(); ++i) {
    EXPECT_LT(revotes[i - 1], revotes[i]) << "re-vote " << i;
  }

  const std::vector<TraceEvent> again = RecoverWithUndecidedVotes();
  ASSERT_EQ(events.size(), again.size());
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].ToString(), again[i].ToString()) << "event " << i;
  }
}

// The recovery round counter lives in the volatile leadership, which a
// crash wipes. Recovery ballots the RM runs after it recovers must still
// exceed every ballot it ran for the same transaction before the crash:
// a reused ballot would let a stale pre-crash Phase1b count toward the
// new round.
TEST(PaxosPropertyTest, RecoveryBallotsAfterCrashExceedEarlierOnes) {
  const std::vector<TraceEvent> events = RecoverWithUndecidedVotes();
  const SiteId rm(2);
  std::map<TxnId, uint64_t> highest_before_crash;
  std::set<TxnId> ballots_after_recover;
  bool recovered = false;
  for (const TraceEvent& e : events) {
    if (e.site != rm) {
      continue;
    }
    if (e.type == TraceEventType::kRecover) {
      recovered = true;
    }
    if (e.type != TraceEventType::kPaxosRecoveryBallot) {
      continue;
    }
    if (!recovered) {
      uint64_t& highest = highest_before_crash[e.txn];
      highest = std::max(highest, e.arg);
      continue;
    }
    ballots_after_recover.insert(e.txn);
    const auto before = highest_before_crash.find(e.txn);
    if (before != highest_before_crash.end()) {
      EXPECT_GT(e.arg, before->second)
          << e.txn << " reran ballot " << e.arg << " after recovering";
    }
  }
  ASSERT_TRUE(recovered);
  // The scenario must exercise the property: some transaction had
  // recovery ballots on both sides of the crash.
  size_t spanning = 0;
  for (TxnId txn : ballots_after_recover) {
    spanning += highest_before_crash.count(txn);
  }
  EXPECT_GT(spanning, 0u);
}

// A site leads at most one recovery ballot per transaction at a time: a
// new one may only replace a ballot whose own failover timeout expired
// (LeaderTimeout escalation). The RM's FailoverTick landing on its own
// site while it already leads must not start a second, competing round.
TEST(PaxosPropertyTest, OneRecoveryBallotPerTxnPerSiteAtATime) {
  constexpr double kFailoverTimeout = 0.05;  // RecoverWithUndecidedVotes
  const std::vector<TraceEvent> events = RecoverWithUndecidedVotes();
  std::map<std::pair<SiteId, TxnId>, double> last_ballot_at;
  size_t ballots = 0;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kCrash) {
      // A crash ends every leadership the site held.
      for (auto it = last_ballot_at.begin(); it != last_ballot_at.end();) {
        it = it->first.first == e.site ? last_ballot_at.erase(it)
                                       : std::next(it);
      }
      continue;
    }
    if (e.type != TraceEventType::kPaxosRecoveryBallot) {
      continue;
    }
    ++ballots;
    const auto key = std::make_pair(e.site, e.txn);
    const auto last = last_ballot_at.find(key);
    if (last != last_ballot_at.end()) {
      EXPECT_GE(e.time - last->second, kFailoverTimeout - 1e-9)
          << e.site << " started ballot " << e.arg << " for " << e.txn
          << " while its previous one was live";
    }
    last_ballot_at[key] = e.time;
  }
  EXPECT_GT(ballots, 0u);
}

}  // namespace
}  // namespace polyvalue

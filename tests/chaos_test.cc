// Chaos property tests: randomised failure schedules against global
// invariants.
//
// For any schedule of message drops, site crashes and recoveries, after
// the network heals and the system quiesces:
//   I1. every item is certain (all uncertainty drains),
//   I2. money is conserved (transfers are atomic),
//   I3. a client-reported COMMIT implies both writes survived and a
//       client-reported certain output was truthful,
//   I4. no locks remain held,
//   I5. the recorded protocol trace satisfies every TraceAuditor
//       invariant (the path was legal, not just the end state).
// Runs under the polyvalue policy (the paper) and the blocking baseline,
// across a seed x policy x drop-rate x lock-wait grid.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/obs/audit.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

// gtest prints a parameter that has no PrintTo as its raw bytes, and
// those bytes are part of every Schedules/ChaosTest.* ctest name. The
// struct therefore has no padding (asserted below): padding bytes are
// indeterminate, so they made the names differ between builds of one
// tree.
struct ChaosParams {
  uint64_t seed;
  double drop_probability;
  InDoubtPolicy policy;
  LockWaitPolicy lock_wait = LockWaitPolicy::kNoWait;
  ProtocolLeg leg = ProtocolLeg::kTwoPhase;
  int32_t accounts_per_site = 6;
};
static_assert(sizeof(ChaosParams) ==
                  sizeof(uint64_t) + sizeof(double) + sizeof(InDoubtPolicy) +
                      sizeof(LockWaitPolicy) + sizeof(ProtocolLeg) +
                      sizeof(int32_t),
              "ChaosParams must have no padding");

class ChaosTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ChaosTest, InvariantsHoldThroughRandomFailures) {
  const ChaosParams& params = GetParam();
  VectorTraceSink trace;
  SimCluster::Options options;
  options.trace = &trace;
  options.site_count = 4;
  options.seed = params.seed;
  options.engine.prepare_timeout = 0.3;
  options.engine.ready_timeout = 0.3;
  options.engine.wait_timeout = 0.1;
  options.engine.inquiry_interval = 0.25;
  options.engine.policy = params.policy;
  options.engine.lock_wait = params.lock_wait;
  options.engine.leg = params.leg;
  options.engine.paxos_failover_timeout = 0.2;
  options.engine.validate_installs = true;
  options.min_delay = 0.005;
  options.max_delay = 0.02;
  SimCluster cluster(options);

  const int kAccountsPerSite = params.accounts_per_site;
  constexpr int64_t kInitial = 500;
  for (size_t s = 0; s < 4; ++s) {
    for (int a = 0; a < kAccountsPerSite; ++a) {
      cluster.Load(s, "acct/" + std::to_string(s) + "/" + std::to_string(a),
                   Value::Int(kInitial));
    }
  }
  const int64_t expected_total = 4 * kAccountsPerSite * kInitial;

  Rng rng(params.seed * 7919);
  Simulator& sim = cluster.sim();

  // Random crash/recovery schedule over the first 20 s: each site crashes
  // once at a random time for a random 1-4 s outage (never all at once —
  // site 3 stays up to keep some quorum of activity).
  for (size_t s = 0; s < 3; ++s) {
    const double crash_at = 2.0 + rng.NextDouble() * 12.0;
    const double recover_at = crash_at + 1.0 + rng.NextDouble() * 3.0;
    sim.At(crash_at, [&cluster, s] { cluster.CrashSite(s); });
    sim.At(recover_at, [&cluster, s] { cluster.RecoverSite(s); });
  }
  cluster.faults().SetDropProbability(params.drop_probability);

  // Offered load: random transfers for 20 s.
  struct Outcome {
    bool committed;
    bool output_certain;
  };
  std::map<TxnId, Outcome> outcomes;
  int submitted = 0;
  std::function<void()> pump = [&] {
    if (sim.now() > 20.0) {
      return;
    }
    sim.After(rng.NextExponential(1.0 / 25.0), [&] {
      pump();
      const size_t coordinator = rng.NextBelow(4);
      if (cluster.site(coordinator).crashed()) {
        return;
      }
      const size_t fs = rng.NextBelow(4);
      size_t ts = rng.NextBelow(4);
      const int fa = rng.NextBelow(kAccountsPerSite);
      int ta = rng.NextBelow(kAccountsPerSite);
      if (fs == ts && fa == ta) {
        ta = (ta + 1) % kAccountsPerSite;
      }
      const ItemKey from =
          "acct/" + std::to_string(fs) + "/" + std::to_string(fa);
      const ItemKey to =
          "acct/" + std::to_string(ts) + "/" + std::to_string(ta);
      const int64_t amount = rng.NextInt(1, 25);
      TxnSpec spec;
      spec.ReadWrite(from, cluster.site_id(fs));
      spec.ReadWrite(to, cluster.site_id(ts));
      spec.Logic([from, to, amount](const TxnReads& reads) {
        const int64_t have = reads.IntAt(from);
        if (have < amount) {
          return TxnEffect::Abort("insufficient");
        }
        TxnEffect e;
        e.writes[from] = Value::Int(have - amount);
        e.writes[to] = Value::Int(reads.IntAt(to) + amount);
        e.output = Value::Bool(true);
        return e;
      });
      ++submitted;
      const TxnId txn = cluster.Submit(
          coordinator, std::move(spec), [&outcomes](const TxnResult& r) {
            outcomes[r.id] = {r.committed(), r.output.is_certain()};
          });
      (void)txn;
    });
  };
  pump();
  cluster.RunFor(22.0);

  // Heal everything and quiesce.
  for (size_t s = 0; s < 4; ++s) {
    if (cluster.site(s).crashed()) {
      cluster.RecoverSite(s);
    }
  }
  cluster.faults().SetDropProbability(0.0);
  cluster.faults().HealAll();
  cluster.RunFor(30.0);

  ASSERT_GT(submitted, 100);

  // I1: all certain.
  EXPECT_EQ(cluster.TotalUncertainItems(), 0u)
      << "policy=" << InDoubtPolicyName(params.policy)
      << " seed=" << params.seed;

  // I2: conservation.
  int64_t total = 0;
  for (size_t s = 0; s < 4; ++s) {
    cluster.site(s).store().ForEach(
        [&total](const ItemKey&, const PolyValue& v) {
          ASSERT_TRUE(v.is_certain());
          total += v.certain_value().int_value();
        });
  }
  EXPECT_EQ(total, expected_total)
      << "policy=" << InDoubtPolicyName(params.policy)
      << " seed=" << params.seed;

  // I3: commits the coordinator reported match its durable decision.
  for (const auto& [txn, outcome] : outcomes) {
    if (outcome.committed) {
      const size_t coord_index =
          TxnEngine::CoordinatorOf(txn).value() - 1;
      EXPECT_EQ(cluster.site(coord_index).DecidedOutcome(txn), true);
    }
  }

  // I4: no stuck locks.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster.site(s).store().locked_count(), 0u) << "site " << s;
  }

  // I5: the event sequence itself obeys the protocol invariants.
  const std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_GT(events.size(), 0u);
  const Status audit = TraceAuditor::Check(events);
  EXPECT_TRUE(audit.ok()) << "policy=" << InDoubtPolicyName(params.policy)
                          << " seed=" << params.seed << "\n"
                          << audit.message();
}

// Full grid: every (policy, lock-wait, drop-rate) combination, plus
// extra polyvalue-policy schedules (the paper's configuration gets the
// widest seed coverage), plus Paxos Commit cells — the same random
// crash/recovery schedules exercise leader crashes mid-Phase2a,
// acceptor minority loss (one of four acceptors down still leaves the
// 3-site majority), and vote/decision drops. Seeds are distinct across
// the whole grid, so the auditor sees 36 different randomized failure
// schedules.
std::vector<ChaosParams> ChaosGrid() {
  std::vector<ChaosParams> grid;
  uint64_t seed = 1;
  for (InDoubtPolicy policy :
       {InDoubtPolicy::kPolyvalue, InDoubtPolicy::kBlock}) {
    for (LockWaitPolicy lock_wait :
         {LockWaitPolicy::kNoWait, LockWaitPolicy::kWaitDie}) {
      for (double drop : {0.0, 0.02, 0.05}) {
        grid.push_back({.seed = seed++,
                        .drop_probability = drop,
                        .policy = policy,
                        .lock_wait = lock_wait});
      }
    }
  }
  while (seed <= 24) {
    grid.push_back({.seed = seed,
                    .drop_probability = 0.03,
                    .policy = InDoubtPolicy::kPolyvalue,
                    .lock_wait = seed % 2 == 0 ? LockWaitPolicy::kWaitDie
                                               : LockWaitPolicy::kNoWait});
    ++seed;
  }
  for (LockWaitPolicy lock_wait :
       {LockWaitPolicy::kNoWait, LockWaitPolicy::kWaitDie}) {
    // No-wait: three seeds per drop rate. Wait-die (the Paxos leg shares
    // the 2PC compute phase, queues included): one seed per drop rate.
    const int per_drop = lock_wait == LockWaitPolicy::kNoWait ? 3 : 1;
    for (double drop : {0.0, 0.02, 0.05}) {
      for (int i = 0; i < per_drop; ++i) {
        grid.push_back({.seed = seed++,
                        .drop_probability = drop,
                        .policy = InDoubtPolicy::kPolyvalue,
                        .lock_wait = lock_wait,
                        .leg = ProtocolLeg::kPaxosCommit});
      }
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ChaosTest, ::testing::ValuesIn(ChaosGrid()),
    [](const ::testing::TestParamInfo<ChaosParams>& i) {
      const bool paxos = i.param.leg == ProtocolLeg::kPaxosCommit;
      return "seed" + std::to_string(i.param.seed) + "_" +
             (paxos ? "paxos" : InDoubtPolicyName(i.param.policy)) +
             "_drop" +
             std::to_string(
                 static_cast<int>(i.param.drop_probability * 100)) +
             (i.param.lock_wait == LockWaitPolicy::kWaitDie ? "_waitdie"
                                                            : "_nowait");
    });

}  // namespace
}  // namespace polyvalue

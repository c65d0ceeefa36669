// Site-level behaviours: stats, lifecycle guards, default factories.
#include "src/system/site.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <string>

#include "src/net/sim_transport.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

TEST(SiteTest, StartTwiceFails) {
  Simulator sim;
  FaultPlan faults;
  Rng rng(1);
  SimTransport transport(&sim, &faults, &rng);
  SimScheduler scheduler(&sim);
  Site site(SiteId(1), &transport, &scheduler);
  ASSERT_TRUE(site.Start().ok());
  EXPECT_EQ(site.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(SiteTest, DefaultFactoryServesMissingItems) {
  Simulator sim;
  FaultPlan faults;
  Rng rng(1);
  SimTransport transport(&sim, &faults, &rng);
  SimScheduler scheduler(&sim);
  Site::Options options;
  options.default_factory = [](const ItemKey&) {
    return PolyValue::Certain(Value::Int(0));
  };
  Site site(SiteId(1), &transport, &scheduler, options);
  ASSERT_TRUE(site.Start().ok());
  EXPECT_EQ(site.Peek("anything").value().certain_value(), Value::Int(0));
}

TEST(SiteTest, GetStatsReflectsState) {
  SimCluster::Options options;
  options.site_count = 2;
  options.engine.wait_timeout = 0.05;
  options.engine.inquiry_interval = 0.2;
  options.min_delay = 0.01;
  options.max_delay = 0.01;
  SimCluster cluster(options);
  cluster.Load(1, "a", Value::Int(100));
  cluster.Load(1, "b", Value::Int(50));

  Site::Stats stats = cluster.site(1).GetStats();
  EXPECT_EQ(stats.items, 2u);
  EXPECT_EQ(stats.uncertain_items, 0u);
  EXPECT_EQ(stats.locked_items, 0u);
  EXPECT_EQ(stats.tracked_transactions, 0u);

  // Strand an update: uncertain item + tracked transaction appear.
  TxnSpec spec;
  spec.ReadWrite("a", cluster.site_id(1));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["a"] = Value::Int(reads.IntAt("a") - 1);
    return e;
  });
  cluster.Submit(0, std::move(spec), [](const TxnResult&) {});
  cluster.sim().At(0.035, [&cluster] { cluster.CrashSite(0); });
  cluster.RunFor(0.3);

  stats = cluster.site(1).GetStats();
  EXPECT_EQ(stats.items, 2u);
  EXPECT_EQ(stats.uncertain_items, 1u);
  EXPECT_EQ(stats.locked_items, 0u);  // polyvalue policy released locks
  EXPECT_EQ(stats.tracked_transactions, 1u);
  EXPECT_EQ(stats.engine.polyvalue_installs, 1u);

  // Recovery clears everything.
  cluster.RecoverSite(0);
  cluster.RunFor(2.0);
  stats = cluster.site(1).GetStats();
  EXPECT_EQ(stats.uncertain_items, 0u);
  EXPECT_EQ(stats.tracked_transactions, 0u);
  EXPECT_EQ(stats.engine.polyvalues_resolved, 1u);
}

TEST(SiteTest, PhaseInstrumentationAccumulates) {
  SimCluster::Options options;
  options.site_count = 2;
  options.min_delay = 0.01;
  options.max_delay = 0.01;
  SimCluster cluster(options);
  cluster.Load(1, "x", Value::Int(0));
  TxnSpec spec;
  spec.ReadWrite("x", cluster.site_id(1));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["x"] = Value::Int(reads.IntAt("x") + 1);
    return e;
  });
  ASSERT_TRUE(cluster.SubmitAndRun(0, std::move(spec)).has_value());
  cluster.RunFor(0.5);
  const EngineMetrics m = cluster.site(1).engine().metrics();
  EXPECT_EQ(m.compute_phase_count, 1u);
  EXPECT_EQ(m.wait_phase_count, 1u);
  // 10 ms links: compute = reply+writereq = 20 ms, window = ready+complete
  // = 20 ms.
  EXPECT_NEAR(m.compute_phase_seconds, 0.02, 0.005);
  EXPECT_NEAR(m.wait_phase_seconds, 0.02, 0.005);
}

// Crashes and recovers site 0 of an idle cluster running `leg` (with a
// WAL and a checkpoint behind it), then reports the simulator events the
// recovery left armed.
size_t EventsArmedByRecovery(ProtocolLeg leg, const std::string& wal_dir) {
  mkdir(wal_dir.c_str(), 0755);
  for (const char* file : {"/site0.wal", "/site0.wal.snap", "/site1.wal",
                           "/site2.wal"}) {
    std::remove((wal_dir + file).c_str());
  }
  SimCluster::Options options;
  options.site_count = 3;
  options.engine.leg = leg;
  options.wal_dir = wal_dir;
  SimCluster cluster(options);
  cluster.Load(0, "x", Value::Int(1));
  EXPECT_TRUE(cluster.site(0).Checkpoint().ok());
  cluster.RunAll();
  EXPECT_EQ(cluster.sim().pending(), 0u);
  cluster.CrashSite(0);
  cluster.RecoverSite(0);
  return cluster.sim().pending();
}

TEST(SiteTest, PaxosSiteBuildsNoTxnEngine) {
  // A Paxos Commit site builds only the leg it runs: no idle TxnEngine to
  // restore WAL state into, and so no 2PC inquiry tick after a restart
  // (which a 2PC site, the control, does arm).
  EXPECT_GT(EventsArmedByRecovery(ProtocolLeg::kTwoPhase,
                                  testing::TempDir() + "site_2pc"),
            0u);
  EXPECT_EQ(EventsArmedByRecovery(ProtocolLeg::kPaxosCommit,
                                  testing::TempDir() + "site_paxos"),
            0u);

  SimCluster::Options options;
  options.site_count = 3;
  options.engine.leg = ProtocolLeg::kPaxosCommit;
  SimCluster cluster(options);
  EXPECT_NE(dynamic_cast<PaxosEngine*>(&cluster.site(0).protocol()),
            nullptr);
  EXPECT_DEATH(cluster.site(0).engine(), "runs Paxos Commit");
}

}  // namespace
}  // namespace polyvalue

// Tests for replicated items (§3's "a set of individual items, one for
// each site").
#include "src/system/replication.h"

#include <gtest/gtest.h>

#include "src/obs/trace.h"
#include "src/replica/consistency.h"

namespace polyvalue {
namespace {

SimCluster::Options Options() {
  SimCluster::Options options;
  options.site_count = 3;
  options.engine.wait_timeout = 0.05;
  options.engine.inquiry_interval = 0.2;
  options.engine.validate_installs = true;
  options.min_delay = 0.01;
  options.max_delay = 0.01;
  return options;
}

TEST(ReplicationTest, KeysArePerSite) {
  const ReplicaSet replicas("counter", {SiteId(1), SiteId(2), SiteId(3)});
  EXPECT_EQ(replicas.KeyAt(SiteId(2)), "counter@2");
  EXPECT_EQ(replicas.size(), 3u);
}

TEST(ReplicationTest, UpdateWritesAllCopies) {
  SimCluster cluster(Options());
  const ReplicaSet replicas("counter", {SiteId(1), SiteId(2), SiteId(3)});
  LoadReplicated(&cluster, replicas, Value::Int(0));

  const auto result = cluster.SubmitAndRun(
      0, replicas.MakeUpdate([](const Value& v) {
        return Add(v, Value::Int(5));
      }));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  EXPECT_EQ(result->output.certain_value(), Value::Int(5));
  cluster.RunFor(0.5);
  for (SiteId site : replicas.sites()) {
    EXPECT_EQ(cluster.site(site.value() - 1)
                  .Peek(replicas.KeyAt(site))
                  .value()
                  .certain_value(),
              Value::Int(5))
        << site;
  }
  EXPECT_TRUE(CheckReplicaSet(&cluster, replicas).consistent());
}

TEST(ReplicationTest, ReadReturnsLogicalValue) {
  SimCluster cluster(Options());
  const ReplicaSet replicas("cfg", {SiteId(2), SiteId(3)});
  LoadReplicated(&cluster, replicas, Value::Str("v1"));
  const auto result =
      cluster.SubmitAndRun(0, replicas.MakeRead(SiteId(2)));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->output.certain_value(), Value::Str("v1"));
}

TEST(ReplicationTest, UpdateAbortsCleanlyOnLogicFailure) {
  SimCluster cluster(Options());
  const ReplicaSet replicas("counter", {SiteId(1), SiteId(2)});
  LoadReplicated(&cluster, replicas, Value::Str("not-a-number"));
  const auto result = cluster.SubmitAndRun(
      0, replicas.MakeUpdate([](const Value& v) {
        return Add(v, Value::Int(1));  // type error -> abort
      }));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->committed());
  cluster.RunFor(0.5);
  EXPECT_TRUE(CheckReplicaSet(&cluster, replicas).consistent());
}

TEST(ReplicationTest, StrandedUpdateLeavesIdenticalPolyvaluesEverywhere) {
  SimCluster cluster(Options());
  const ReplicaSet replicas("counter", {SiteId(1), SiteId(2), SiteId(3)});
  LoadReplicated(&cluster, replicas, Value::Int(10));

  // Strand an update: coordinator crashes in the in-doubt window.
  cluster.Submit(0, replicas.MakeUpdate([](const Value& v) {
                   return Add(v, Value::Int(1));
                 }),
                 [](const TxnResult&) {});
  cluster.sim().At(0.035, [&cluster] { cluster.CrashSite(0); });
  cluster.RunFor(0.3);

  // Sites 2 and 3 hold identical polyvalues for their copies. (Site 1's
  // copy is on the crashed coordinator itself; it catches up at
  // recovery.)
  const PolyValue copy2 =
      cluster.site(1).Peek(replicas.KeyAt(SiteId(2))).value();
  const PolyValue copy3 =
      cluster.site(2).Peek(replicas.KeyAt(SiteId(3))).value();
  EXPECT_FALSE(copy2.is_certain());
  EXPECT_EQ(copy2.PossibleValues(), copy3.PossibleValues());

  // Recovery: every copy resolves to the same certain value.
  cluster.RecoverSite(0);
  cluster.RunFor(3.0);
  EXPECT_TRUE(CheckReplicaSet(&cluster, replicas).consistent());
  EXPECT_EQ(cluster.site(1)
                .Peek(replicas.KeyAt(SiteId(2)))
                .value()
                .certain_value(),
            Value::Int(10));  // presumed abort
}

TEST(ReplicationTest, SurvivingReplicasServeReadsDuringSiteOutage) {
  SimCluster cluster(Options());
  const ReplicaSet primary_down("cfg", {SiteId(2), SiteId(3)});
  LoadReplicated(&cluster, primary_down, Value::Int(7));
  cluster.CrashSite(2);  // site 3 = the second replica holder
  // Read through the surviving replica (site 2, index 1) still works.
  const auto result =
      cluster.SubmitAndRun(0, primary_down.MakeRead(SiteId(2)));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->output.certain_value(), Value::Int(7));
}

// --- Consistency checker and repair tool (src/replica/consistency.h) --

TEST(ReplicaConsistencyTest, CleanSetReportsConsistent) {
  SimCluster cluster(Options());
  const ReplicaSet replicas("cfg", {SiteId(1), SiteId(2), SiteId(3)});
  LoadReplicated(&cluster, replicas, Value::Int(5));
  const ReplicaCheckReport report = CheckReplicaSet(&cluster, replicas);
  EXPECT_TRUE(report.consistent());
  EXPECT_EQ(report.copies_checked, 3u);
  EXPECT_EQ(report.divergent, 0u);
  EXPECT_TRUE(report.problems.empty());
}

TEST(ReplicaConsistencyTest, DetectsDivergentCopy) {
  SimCluster cluster(Options());
  const ReplicaSet replicas("cfg", {SiteId(1), SiteId(2), SiteId(3)});
  LoadReplicated(&cluster, replicas, Value::Int(5));
  // Corrupt the minority copy behind the protocol's back.
  cluster.site(2).Load(replicas.KeyAt(SiteId(3)), Value::Int(999));
  const ReplicaCheckReport report = CheckReplicaSet(&cluster, replicas);
  EXPECT_FALSE(report.consistent());
  EXPECT_EQ(report.divergent, 1u);
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find("cfg@3"), std::string::npos);
}

TEST(ReplicaConsistencyTest, DetectsCopyCountMismatch) {
  SimCluster cluster(Options());
  // Copies loaded only at two of the three declared sites.
  const ReplicaSet loaded("cfg", {SiteId(1), SiteId(2)});
  const ReplicaSet declared("cfg", {SiteId(1), SiteId(2), SiteId(3)});
  LoadReplicated(&cluster, loaded, Value::Int(5));
  const ReplicaCheckReport report = CheckReplicaSet(&cluster, declared);
  EXPECT_FALSE(report.consistent());
  EXPECT_EQ(report.missing, 1u);
  EXPECT_EQ(report.copies_checked, 3u);
}

TEST(ReplicaConsistencyTest, SkipsCopiesOnDownSites) {
  SimCluster cluster(Options());
  const ReplicaSet replicas("cfg", {SiteId(1), SiteId(2), SiteId(3)});
  LoadReplicated(&cluster, replicas, Value::Int(5));
  cluster.CrashSite(2);
  const ReplicaCheckReport report = CheckReplicaSet(&cluster, replicas);
  EXPECT_TRUE(report.consistent());
  EXPECT_EQ(report.copies_checked, 2u);
  EXPECT_EQ(report.skipped_down, 1u);
}

TEST(ReplicaConsistencyTest, RepairRoundTrip) {
  SimCluster cluster(Options());
  const ReplicaSet replicas("cfg", {SiteId(1), SiteId(2), SiteId(3)});
  LoadReplicated(&cluster, replicas, Value::Int(5));
  cluster.site(2).Load(replicas.KeyAt(SiteId(3)), Value::Int(999));
  ASSERT_FALSE(CheckReplicaSet(&cluster, replicas).consistent());

  VectorTraceSink trace;
  const size_t repaired = RepairReplicaSet(&cluster, replicas, &trace);
  EXPECT_EQ(repaired, 1u);
  EXPECT_TRUE(CheckReplicaSet(&cluster, replicas).consistent());
  EXPECT_EQ(cluster.site(2)
                .Peek(replicas.KeyAt(SiteId(3)))
                .value()
                .certain_value(),
            Value::Int(5));

  // The repair announced the restored digest, so a later certain read
  // of the majority value passes A13 — and a second repair is a no-op.
  bool announced = false;
  for (const TraceEvent& e : trace.Snapshot()) {
    announced = announced || (e.type == TraceEventType::kReplicaRepair &&
                              e.arg == DigestValue(Value::Int(5)));
  }
  EXPECT_TRUE(announced);
  EXPECT_EQ(RepairReplicaSet(&cluster, replicas, &trace), 0u);
}

TEST(ReplicaConsistencyTest, RepairLeavesUncertainCopiesAlone) {
  SimCluster cluster(Options());
  const ReplicaSet replicas("counter", {SiteId(1), SiteId(2), SiteId(3)});
  LoadReplicated(&cluster, replicas, Value::Int(10));
  // Strand an update so the copies hold polyvalues.
  cluster.Submit(0, replicas.MakeUpdate([](const Value& v) {
                   return Add(v, Value::Int(1));
                 }),
                 [](const TxnResult&) {});
  cluster.sim().At(0.035, [&cluster] { cluster.CrashSite(0); });
  cluster.RunFor(0.3);
  ASSERT_FALSE(cluster.site(1)
                   .Peek(replicas.KeyAt(SiteId(2)))
                   .value()
                   .is_certain());
  // No certain majority and uncertain copies are out of scope: repair
  // must not clobber in-doubt state that propagation will resolve.
  EXPECT_EQ(RepairReplicaSet(&cluster, replicas, nullptr), 0u);
  EXPECT_FALSE(cluster.site(1)
                   .Peek(replicas.KeyAt(SiteId(2)))
                   .value()
                   .is_certain());
}

}  // namespace
}  // namespace polyvalue

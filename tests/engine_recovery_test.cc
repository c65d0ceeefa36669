// Durability tests: WAL-backed sites reconstruct their state — items,
// outcome table, prepared votes, coordinator decisions — across a full
// process restart (site object destroyed and rebuilt from the log).
#include <gtest/gtest.h>

#include <cstdio>

#include "src/obs/audit.h"
#include "src/store/wal.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

EngineConfig FastConfig() {
  EngineConfig config;
  config.prepare_timeout = 0.25;
  config.ready_timeout = 0.25;
  config.wait_timeout = 0.05;
  config.inquiry_interval = 0.2;
  config.validate_installs = true;
  return config;
}

class WalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        testing::TempDir() + "engine_recovery_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (int i = 0; i < 3; ++i) {
      wal_paths_[i] = base + "_site" + std::to_string(i) + ".wal";
      std::remove(wal_paths_[i].c_str());
    }
    faults_.SetDelayRange(0.01, 0.01);
    transport_ = std::make_unique<SimTransport>(&sim_, &faults_, &rng_);
    transport_->set_trace(&trace_);
    scheduler_ = std::make_unique<SimScheduler>(&sim_);
    for (int i = 0; i < 3; ++i) {
      sites_[i] = MakeSite(i);
      ASSERT_TRUE(sites_[i]->Start().ok());
    }
  }

  void TearDown() override {
    for (int i = 0; i < 3; ++i) {
      sites_[i].reset();
      std::remove(wal_paths_[i].c_str());
    }
  }

  std::unique_ptr<Site> MakeSite(int index) {
    Site::Options options;
    options.engine = FastConfig();
    options.wal_path = wal_paths_[index];
    // The same sink spans every incarnation of every site, so the
    // auditor sees pre-crash decisions when checking post-restart
    // learned outcomes (invariant A3).
    options.trace = &trace_;
    return std::make_unique<Site>(SiteId(index + 1), transport_.get(),
                                  scheduler_.get(), options);
  }

  // Destroys and rebuilds a site from its WAL (full process restart).
  void RestartSiteFromDisk(int index) {
    faults_.SetSiteDown(SiteId(index + 1), true);
    sites_[index].reset();
    sites_[index] = MakeSite(index);
    ASSERT_TRUE(sites_[index]->Start().ok());
    faults_.SetSiteDown(SiteId(index + 1), false);
    sites_[index]->engine().Recover();
  }

  // The full trace — both incarnations of restarted sites — must obey
  // the protocol invariants.
  void ExpectLegalTrace() {
    ASSERT_GT(trace_.size(), 0u);
    const Status audit = TraceAuditor::Check(trace_.Snapshot());
    EXPECT_TRUE(audit.ok()) << audit.message();
  }

  VectorTraceSink trace_;
  Simulator sim_;
  FaultPlan faults_;
  Rng rng_{17};
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<SimScheduler> scheduler_;
  std::string wal_paths_[3];
  std::unique_ptr<Site> sites_[3];
};

TEST_F(WalRecoveryTest, CommittedDataSurvivesRestart) {
  sites_[1]->Load("x", Value::Int(1));
  // Loads bypass the WAL; write through a transaction instead.
  TxnSpec spec;
  spec.ReadWrite("x", SiteId(2));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["x"] = Value::Int(reads.IntAt("x") + 41);
    return e;
  });
  std::optional<TxnResult> result;
  sites_[0]->Submit(std::move(spec),
                    [&result](const TxnResult& r) { result = r; });
  sim_.RunUntil(1.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->committed());
  ASSERT_EQ(sites_[1]->Peek("x").value().certain_value(), Value::Int(42));

  RestartSiteFromDisk(1);
  EXPECT_EQ(sites_[1]->Peek("x").value().certain_value(), Value::Int(42));
  ExpectLegalTrace();
}

TEST_F(WalRecoveryTest, PreparedVoteSurvivesRestartAndResolves) {
  sites_[1]->Load("a", Value::Int(100));
  // Give "a" a durable baseline in the WAL via a committed txn.
  TxnSpec init;
  init.ReadWrite("a", SiteId(2));
  init.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["a"] = Value::Int(reads.IntAt("a"));
    return e;
  });
  std::optional<TxnResult> init_result;
  sites_[0]->Submit(std::move(init),
                    [&init_result](const TxnResult& r) { init_result = r; });
  sim_.RunUntil(1.0);
  ASSERT_TRUE(init_result.has_value() && init_result->committed());

  // Strand an update: coordinator site0 crashes after READY votes.
  TxnSpec spec;
  spec.ReadWrite("a", SiteId(2));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["a"] = Value::Int(reads.IntAt("a") - 30);
    return e;
  });
  const TxnId txn =
      sites_[0]->Submit(std::move(spec), [](const TxnResult&) {});
  sim_.At(sim_.now() + 0.035, [this] { sites_[0]->Crash(&faults_); });
  sim_.RunUntil(sim_.now() + 0.042);  // READY voted & logged; crash site1
                                      // before its wait timeout fires
  RestartSiteFromDisk(1);
  sim_.RunUntil(sim_.now() + 0.3);

  // The restarted participant found its prepared vote in the WAL and
  // applied the polyvalue policy to it.
  const PolyValue a = sites_[1]->Peek("a").value();
  ASSERT_FALSE(a.is_certain());
  EXPECT_EQ(a.ValueUnder({{txn, true}}).value(), Value::Int(70));
  EXPECT_EQ(a.ValueUnder({{txn, false}}).value(), Value::Int(100));

  // Coordinator comes back; presumed abort resolves the polyvalue.
  sites_[0]->Recover(&faults_);
  sim_.RunUntil(sim_.now() + 2.0);
  EXPECT_EQ(sites_[1]->Peek("a").value().certain_value(), Value::Int(100));
  ExpectLegalTrace();
}

TEST_F(WalRecoveryTest, CoordinatorDecisionSurvivesRestart) {
  sites_[1]->Load("a", Value::Int(1));
  TxnSpec spec;
  spec.ReadWrite("a", SiteId(2));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["a"] = Value::Int(reads.IntAt("a") + 1);
    return e;
  });
  std::optional<TxnResult> result;
  const TxnId txn = sites_[0]->Submit(
      std::move(spec), [&result](const TxnResult& r) { result = r; });
  sim_.RunUntil(1.0);
  ASSERT_TRUE(result.has_value() && result->committed());

  RestartSiteFromDisk(0);
  EXPECT_EQ(sites_[0]->engine().DecidedOutcome(txn), true);
  ExpectLegalTrace();
}

// Flush-only logging buffers WAL records until the engine's ack
// barrier. By the time the client hears "committed", the coordinator's
// decision and every participant's READY vote must already be in the
// log files — read here while every site is still running, which is
// what a process crash at that instant would leave on disk.
TEST_F(WalRecoveryTest, AckedCommitIsInTheLogFilesAtTheCallback) {
  sites_[1]->Load("a", Value::Int(1));
  sites_[2]->Load("b", Value::Int(2));
  TxnSpec spec;
  spec.ReadWrite("a", SiteId(2));
  spec.ReadWrite("b", SiteId(3));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["a"] = Value::Int(reads.IntAt("a") + 1);
    e.writes["b"] = Value::Int(reads.IntAt("b") - 1);
    return e;
  });
  const auto logged = [this](int site, TxnId txn, WalRecordType type) {
    const auto records = Wal::ReplayFile(wal_paths_[site]);
    EXPECT_TRUE(records.ok()) << records.status();
    for (const WalRecord& r : records.value()) {
      if (r.txn == txn && r.type == type &&
          (type != WalRecordType::kOutcome || r.committed)) {
        return true;
      }
    }
    return false;
  };
  std::optional<TxnResult> result;
  bool outcome_logged = false;
  bool votes_logged = false;
  sites_[0]->Submit(std::move(spec), [&](const TxnResult& r) {
    result = r;
    outcome_logged = logged(0, r.id, WalRecordType::kOutcome);
    votes_logged = logged(1, r.id, WalRecordType::kPrepared) &&
                   logged(2, r.id, WalRecordType::kPrepared);
  });
  sim_.RunUntil(1.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->committed());
  EXPECT_TRUE(outcome_logged);
  EXPECT_TRUE(votes_logged);
  ExpectLegalTrace();
}

TEST_F(WalRecoveryTest, UncertainPolyvalueSurvivesRestart) {
  sites_[1]->Load("a", Value::Int(100));
  sites_[2]->Load("b", Value::Int(50));
  TxnSpec spec;
  spec.ReadWrite("a", SiteId(2));
  spec.ReadWrite("b", SiteId(3));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["a"] = Value::Int(reads.IntAt("a") - 30);
    e.writes["b"] = Value::Int(reads.IntAt("b") + 30);
    return e;
  });
  const TxnId txn =
      sites_[0]->Submit(std::move(spec), [](const TxnResult&) {});
  sim_.At(sim_.now() + 0.035, [this] { sites_[0]->Crash(&faults_); });
  sim_.RunUntil(sim_.now() + 0.3);  // wait timeout → polyvalues installed
  ASSERT_FALSE(sites_[1]->Peek("a").value().is_certain());

  // Restart the participant holding the polyvalue: the polyvalue AND its
  // outcome-table tracking must survive, so the inquiry loop resumes.
  RestartSiteFromDisk(1);
  const PolyValue a = sites_[1]->Peek("a").value();
  ASSERT_FALSE(a.is_certain());
  EXPECT_EQ(a.Dependencies(), std::vector<TxnId>{txn});

  sites_[0]->Recover(&faults_);
  sim_.RunUntil(sim_.now() + 2.0);
  EXPECT_EQ(sites_[1]->Peek("a").value().certain_value(), Value::Int(100));
  EXPECT_EQ(sites_[2]->Peek("b").value().certain_value(), Value::Int(50));
  ExpectLegalTrace();
}

}  // namespace
}  // namespace polyvalue

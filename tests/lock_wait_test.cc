// Tests for wait-die lock queuing (LockWaitPolicy::kWaitDie).
#include <gtest/gtest.h>

#include "src/obs/audit.h"
#include "src/store/item_store.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

// --- store-level unit tests ---

TEST(LockOrQueueTest, GrantsFreeItem) {
  ItemStore store;
  EXPECT_EQ(store.LockOrQueue("k", TxnId(5)),
            ItemStore::LockAttempt::kGranted);
  EXPECT_EQ(store.LockHolder("k"), TxnId(5));
}

TEST(LockOrQueueTest, ReentrantGrant) {
  ItemStore store;
  ASSERT_EQ(store.LockOrQueue("k", TxnId(5)),
            ItemStore::LockAttempt::kGranted);
  EXPECT_EQ(store.LockOrQueue("k", TxnId(5)),
            ItemStore::LockAttempt::kGranted);
}

TEST(LockOrQueueTest, OlderWaitsYoungerDies) {
  ItemStore store;
  ASSERT_EQ(store.LockOrQueue("k", TxnId(10)),
            ItemStore::LockAttempt::kGranted);
  // Older (smaller id) requester queues.
  EXPECT_EQ(store.LockOrQueue("k", TxnId(3)),
            ItemStore::LockAttempt::kQueued);
  // Younger (larger id) requester dies.
  EXPECT_EQ(store.LockOrQueue("k", TxnId(20)),
            ItemStore::LockAttempt::kRefused);
}

TEST(LockOrQueueTest, UnlockGrantsEldestWaiter) {
  ItemStore store;
  ASSERT_EQ(store.LockOrQueue("k", TxnId(10)),
            ItemStore::LockAttempt::kGranted);
  ASSERT_EQ(store.LockOrQueue("k", TxnId(7)),
            ItemStore::LockAttempt::kQueued);
  ASSERT_EQ(store.LockOrQueue("k", TxnId(3)),
            ItemStore::LockAttempt::kQueued);
  const auto grants = store.UnlockAll(TxnId(10));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].txn, TxnId(3));  // eldest first
  EXPECT_EQ(grants[0].key, "k");
  EXPECT_EQ(store.LockHolder("k"), TxnId(3));
  // T7 still queued behind T3.
  const auto grants2 = store.UnlockAll(TxnId(3));
  ASSERT_EQ(grants2.size(), 1u);
  EXPECT_EQ(grants2[0].txn, TxnId(7));
}

TEST(LockOrQueueTest, CancelWaitsRemovesQueueEntry) {
  ItemStore store;
  ASSERT_EQ(store.LockOrQueue("k", TxnId(10)),
            ItemStore::LockAttempt::kGranted);
  ASSERT_EQ(store.LockOrQueue("k", TxnId(3)),
            ItemStore::LockAttempt::kQueued);
  store.CancelWaits(TxnId(3));
  const auto grants = store.UnlockAll(TxnId(10));
  EXPECT_TRUE(grants.empty());
  EXPECT_FALSE(store.LockHolder("k").has_value());
}

TEST(LockOrQueueTest, UnlockAllAlsoDropsOwnQueuedWaits) {
  ItemStore store;
  ASSERT_EQ(store.LockOrQueue("a", TxnId(10)),
            ItemStore::LockAttempt::kGranted);
  ASSERT_EQ(store.LockOrQueue("b", TxnId(3)),
            ItemStore::LockAttempt::kGranted);
  // T3 holds b and waits for a (older than 10? 3 < 10 yes).
  ASSERT_EQ(store.LockOrQueue("a", TxnId(3)),
            ItemStore::LockAttempt::kQueued);
  // T3 goes away entirely.
  (void)store.UnlockAll(TxnId(3));
  const auto grants = store.UnlockAll(TxnId(10));
  EXPECT_TRUE(grants.empty());
}

// --- engine-level integration ---

SimCluster::Options WaitDieOptions() {
  SimCluster::Options options;
  options.site_count = 2;
  options.engine.lock_wait = LockWaitPolicy::kWaitDie;
  options.engine.prepare_timeout = 2.0;
  options.engine.ready_timeout = 2.0;
  options.engine.wait_timeout = 0.1;
  options.min_delay = 0.01;
  options.max_delay = 0.01;
  // Slow the coordinator down so contention windows are wide.
  options.engine.execution_delay = 0.2;
  options.engine.enable_local_fast_path = false;
  return options;
}

TxnSpec Bump(const ItemKey& key, SiteId site) {
  TxnSpec spec;
  spec.ReadWrite(key, site);
  spec.Logic([key](const TxnReads& reads) {
    TxnEffect e;
    e.writes[key] = Value::Int(reads.IntAt(key) + 1);
    return e;
  });
  return spec;
}

TEST(WaitDieEngineTest, ContendingTransactionsBothCommitViaWaiting) {
  SimCluster cluster(WaitDieOptions());
  cluster.Load(1, "hot", Value::Int(0));
  int committed = 0;
  int aborted = 0;
  auto count = [&](const TxnResult& r) {
    r.committed() ? ++committed : ++aborted;
  };
  // First submission gets the smaller (older) id; it is submitted second
  // at the participant? No — both race. Either order, wait-die lets the
  // older one wait and the younger one at worst die; with only two txns
  // and 0.2 s execution, the older waits for the younger's locks... the
  // YOUNGER holds only if it arrived first. Submit older first so it
  // acquires, younger dies OR submit so older waits: both cases must
  // conserve the counter; at least one commits immediately.
  cluster.Submit(0, Bump("hot", cluster.site_id(1)), count);
  cluster.Submit(0, Bump("hot", cluster.site_id(1)), count);
  cluster.RunFor(10.0);
  EXPECT_EQ(committed + aborted, 2);
  EXPECT_GE(committed, 1);
  EXPECT_EQ(cluster.site(1).Peek("hot").value().certain_value(),
            Value::Int(committed));
  EXPECT_EQ(cluster.site(1).store().locked_count(), 0u);
}

TEST(WaitDieEngineTest, OlderTransactionWaitsAndCommits) {
  SimCluster cluster(WaitDieOptions());
  cluster.Load(1, "hot", Value::Int(0));
  int committed = 0;
  auto count = [&committed](const TxnResult& r) {
    if (r.committed()) {
      ++committed;
    }
  };
  // Allocate the OLDER id first but submit it second, so the younger
  // transaction holds the lock when the older one arrives -> queue.
  TxnEngine& engine = cluster.site(0).engine();
  const TxnId older = engine.AllocateTxnId();
  const TxnId younger = engine.AllocateTxnId();
  engine.Submit(Bump("hot", cluster.site_id(1)), count, younger);
  cluster.RunFor(0.05);  // younger holds the lock, still executing
  engine.Submit(Bump("hot", cluster.site_id(1)), count, older);
  cluster.RunFor(10.0);
  // Both commit: the older waited for the younger to finish.
  EXPECT_EQ(committed, 2);
  EXPECT_EQ(cluster.site(1).Peek("hot").value().certain_value(),
            Value::Int(2));
  const EngineMetrics m = cluster.site(1).engine().metrics();
  EXPECT_GE(m.lock_waits, 1u);
  EXPECT_GE(m.lock_wait_resumes, 1u);
}

TEST(WaitDieEngineTest, YoungerTransactionStillDies) {
  SimCluster cluster(WaitDieOptions());
  cluster.Load(1, "hot", Value::Int(0));
  std::optional<TxnResult> younger_result;
  TxnEngine& engine = cluster.site(0).engine();
  const TxnId older = engine.AllocateTxnId();
  const TxnId younger = engine.AllocateTxnId();
  engine.Submit(Bump("hot", cluster.site_id(1)), [](const TxnResult&) {},
                older);
  cluster.RunFor(0.05);  // older holds the lock
  engine.Submit(Bump("hot", cluster.site_id(1)),
                [&younger_result](const TxnResult& r) {
                  younger_result = r;
                },
                younger);
  cluster.RunFor(0.2);
  ASSERT_TRUE(younger_result.has_value());
  EXPECT_FALSE(younger_result->committed());
}

TEST(WaitDieEngineTest, ChaosStyleContentionConserves) {
  SimCluster::Options options = WaitDieOptions();
  options.site_count = 3;
  options.engine.execution_delay = 0.1;  // long holds: heavy contention
  SimCluster cluster(options);
  for (int a = 0; a < 3; ++a) {
    cluster.Load(1, "acct" + std::to_string(a), Value::Int(100));
  }
  Rng rng(42);
  int completed = 0;
  std::function<void()> pump = [&] {
    if (cluster.sim().now() > 15.0) {
      return;
    }
    cluster.sim().After(rng.NextExponential(1.0 / 40.0), [&] {
      pump();
      const int from = rng.NextBelow(3);
      int to = rng.NextBelow(3);
      if (to == from) {
        to = (to + 1) % 3;
      }
      TxnSpec spec;
      const ItemKey from_key = "acct" + std::to_string(from);
      const ItemKey to_key = "acct" + std::to_string(to);
      spec.ReadWrite(from_key, cluster.site_id(1));
      spec.ReadWrite(to_key, cluster.site_id(1));
      spec.Logic([from_key, to_key](const TxnReads& reads) {
        TxnEffect e;
        e.writes[from_key] = Value::Int(reads.IntAt(from_key) - 1);
        e.writes[to_key] = Value::Int(reads.IntAt(to_key) + 1);
        return e;
      });
      cluster.Submit(rng.NextBelow(3), std::move(spec),
                     [&completed](const TxnResult&) { ++completed; });
    });
  };
  pump();
  cluster.RunFor(30.0);
  EXPECT_GT(completed, 100);
  int64_t total = 0;
  for (int a = 0; a < 3; ++a) {
    const PolyValue v =
        cluster.site(1).Peek("acct" + std::to_string(a)).value();
    ASSERT_TRUE(v.is_certain());
    total += v.certain_value().int_value();
  }
  EXPECT_EQ(total, 300);
  EXPECT_EQ(cluster.site(1).store().locked_count(), 0u);
  EXPECT_GT(cluster.TotalMetrics().lock_waits, 0u);
}

// The Paxos Commit leg shares the 2PC compute phase, lock discipline
// included: under wait-die its contended PREPAREs queue and resume too.
TEST(WaitDieEngineTest, PaxosLegQueuesResumesAndConserves) {
  VectorTraceSink trace;
  SimCluster::Options options = WaitDieOptions();
  options.site_count = 3;
  options.trace = &trace;
  options.engine.leg = ProtocolLeg::kPaxosCommit;
  options.engine.execution_delay = 0.1;  // long holds: heavy contention
  SimCluster cluster(options);
  for (int a = 0; a < 3; ++a) {
    cluster.Load(1, "acct" + std::to_string(a), Value::Int(100));
  }
  Rng rng(43);
  int completed = 0;
  std::function<void()> pump = [&] {
    if (cluster.sim().now() > 15.0) {
      return;
    }
    cluster.sim().After(rng.NextExponential(1.0 / 40.0), [&] {
      pump();
      const int from = rng.NextBelow(3);
      int to = rng.NextBelow(3);
      if (to == from) {
        to = (to + 1) % 3;
      }
      TxnSpec spec;
      const ItemKey from_key = "acct" + std::to_string(from);
      const ItemKey to_key = "acct" + std::to_string(to);
      spec.ReadWrite(from_key, cluster.site_id(1));
      spec.ReadWrite(to_key, cluster.site_id(1));
      spec.Logic([from_key, to_key](const TxnReads& reads) {
        TxnEffect e;
        e.writes[from_key] = Value::Int(reads.IntAt(from_key) - 1);
        e.writes[to_key] = Value::Int(reads.IntAt(to_key) + 1);
        return e;
      });
      cluster.Submit(rng.NextBelow(3), std::move(spec),
                     [&completed](const TxnResult&) { ++completed; });
    });
  };
  pump();
  cluster.RunFor(30.0);
  EXPECT_GT(completed, 100);
  const EngineMetrics m = cluster.TotalMetrics();
  EXPECT_GT(m.lock_waits, 0u);
  EXPECT_GT(m.lock_wait_resumes, 0u);
  int64_t total = 0;
  for (int a = 0; a < 3; ++a) {
    const PolyValue v =
        cluster.site(1).Peek("acct" + std::to_string(a)).value();
    ASSERT_TRUE(v.is_certain());
    total += v.certain_value().int_value();
  }
  EXPECT_EQ(total, 300);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.site(i).store().locked_count(), 0u) << "site " << i;
  }
  const Status audit = TraceAuditor::Check(trace.Snapshot());
  EXPECT_TRUE(audit.ok()) << audit.message();
}

}  // namespace
}  // namespace polyvalue

namespace polyvalue {
namespace {

TEST(WaitDieEngineTest, ParkedWaiterResumesWhenHolderStrandsIntoPolyvalue) {
  // The two mechanisms composed: an older transaction queues behind a
  // younger holder; the younger holder's coordinator crashes in the
  // in-doubt window, so the polyvalue policy installs {new if T; old if
  // ¬T} and RELEASES the locks — which must wake the parked waiter, whose
  // transaction then commits as a polytransaction over the uncertainty.
  SimCluster::Options options;
  options.site_count = 3;
  options.engine.lock_wait = LockWaitPolicy::kWaitDie;
  options.engine.prepare_timeout = 5.0;
  options.engine.ready_timeout = 5.0;
  options.engine.wait_timeout = 0.1;
  options.engine.inquiry_interval = 0.2;
  options.engine.validate_installs = true;
  options.engine.enable_local_fast_path = false;
  options.min_delay = 0.01;
  options.max_delay = 0.01;
  SimCluster cluster(options);
  cluster.Load(1, "hot", Value::Int(100));

  // Reserve the OLDER id at site 3's engine... ids must satisfy
  // older < younger; site 2 coordinates the younger holder.
  TxnEngine& old_coord = cluster.site(0).engine();   // SiteId 1: low ids
  TxnEngine& young_coord = cluster.site(2).engine(); // SiteId 3: high ids
  const TxnId older = old_coord.AllocateTxnId();
  const TxnId younger = young_coord.AllocateTxnId();
  ASSERT_LT(older, younger);

  auto bump = [&](int64_t delta) {
    TxnSpec spec;
    spec.ReadWrite("hot", cluster.site_id(1));
    spec.Logic([delta](const TxnReads& reads) {
      TxnEffect e;
      e.writes["hot"] = Value::Int(reads.IntAt("hot") + delta);
      return e;
    });
    return spec;
  };

  // Younger holder first; crash its coordinator in the in-doubt window.
  young_coord.Submit(bump(-30), [](const TxnResult&) {}, younger);
  cluster.sim().At(0.035, [&cluster] { cluster.CrashSite(2); });
  cluster.RunFor(0.06);  // younger voted READY, holds the lock, in doubt

  // Older arrives and must park (wait-die: older waits).
  std::optional<TxnResult> older_result;
  old_coord.Submit(bump(+1),
                   [&older_result](const TxnResult& r) {
                     older_result = r;
                   },
                   older);
  cluster.RunFor(0.02);
  EXPECT_FALSE(older_result.has_value());
  EXPECT_GE(cluster.site(1).engine().metrics().lock_waits, 1u);

  // The wait timeout fires (~t=0.14): polyvalues install, locks release,
  // the parked prepare resumes, and the older txn commits as a
  // polytransaction.
  cluster.RunFor(2.0);
  ASSERT_TRUE(older_result.has_value());
  EXPECT_TRUE(older_result->committed());
  const PolyValue hot = cluster.site(1).Peek("hot").value();
  ASSERT_FALSE(hot.is_certain());
  EXPECT_EQ(hot.ValueUnder({{younger, true}}).value(), Value::Int(71));
  EXPECT_EQ(hot.ValueUnder({{younger, false}}).value(), Value::Int(101));
  EXPECT_GE(cluster.site(1).engine().metrics().lock_wait_resumes, 1u);
  EXPECT_GE(cluster.TotalMetrics().polytxns, 1u);

  // Recovery resolves everything (presumed abort for the younger).
  cluster.RecoverSite(2);
  cluster.RunFor(3.0);
  EXPECT_EQ(cluster.site(1).Peek("hot").value().certain_value(),
            Value::Int(101));
}

}  // namespace
}  // namespace polyvalue

namespace polyvalue {
namespace {

TEST(WaitDieEngineTest, WorksUnderRealThreads) {
  ThreadCluster::Options options;
  options.site_count = 2;
  options.engine.lock_wait = LockWaitPolicy::kWaitDie;
  options.engine.prepare_timeout = 2.0;
  options.engine.ready_timeout = 2.0;
  ThreadCluster cluster(options);
  cluster.Load(1, "hot", Value::Int(0));
  std::atomic<int> committed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&cluster, &committed] {
      for (int attempt = 0; attempt < 30; ++attempt) {
        TxnSpec spec;
        spec.ReadWrite("hot", cluster.site_id(1));
        spec.Logic([](const TxnReads& reads) {
          TxnEffect e;
          e.writes["hot"] = Value::Int(reads.IntAt("hot") + 1);
          return e;
        });
        const auto result = cluster.SubmitAndWait(0, std::move(spec));
        if (result.has_value() && result->committed()) {
          ++committed;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(committed.load(), 6);
  for (int i = 0; i < 200; ++i) {
    const auto v = cluster.site(1).Peek("hot");
    if (v.ok() && v.value().is_certain() &&
        v.value().certain_value() == Value::Int(6)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(cluster.site(1).Peek("hot").value().certain_value(),
            Value::Int(6));
  EXPECT_EQ(cluster.site(1).store().locked_count(), 0u);
}

}  // namespace
}  // namespace polyvalue

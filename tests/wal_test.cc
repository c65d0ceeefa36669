// Unit tests for the write-ahead log: round trips, torn-tail tolerance,
// corruption detection, and site-state recovery.
#include "src/store/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/store/recovery.h"

namespace polyvalue {
namespace {

const TxnId kT1(1);
const TxnId kT2(2);
const SiteId kS1(1);

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "wal_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

PolyValue SamplePoly() {
  return PolyValue::InstallUncertain(kT1,
                                     PolyValue::Certain(Value::Int(10)),
                                     PolyValue::Certain(Value::Int(20)));
}

TEST_F(WalTest, EmptyFileReplaysEmpty) {
  const auto records = Wal::ReplayFile(path_);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST_F(WalTest, AppendAndReplayAllRecordTypes) {
  {
    auto wal = Wal::Open(path_).value();
    ASSERT_TRUE(wal->Append(WalRecord::Write("k", SamplePoly())).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT1, true)).ok());
    ASSERT_TRUE(wal->Append(WalRecord::TrackItem(kT2, "k")).ok());
    ASSERT_TRUE(wal->Append(WalRecord::TrackSite(kT2, kS1)).ok());
    ASSERT_TRUE(wal->Append(WalRecord::UntrackItem(kT2, "k")).ok());
    ASSERT_TRUE(wal->Append(WalRecord::ForgetTxn(kT2)).ok());
    ASSERT_TRUE(wal->Append(
                       WalRecord::Prepared(kT2, kS1,
                                           {{"k", SamplePoly()}}))
                    .ok());
    ASSERT_TRUE(wal->Append(WalRecord::PreparedResolved(kT2)).ok());
    EXPECT_EQ(wal->records_appended(), 8u);
  }
  const auto records = Wal::ReplayFile(path_).value();
  ASSERT_EQ(records.size(), 8u);
  EXPECT_EQ(records[0].type, WalRecordType::kWrite);
  EXPECT_EQ(records[0].key, "k");
  EXPECT_EQ(records[0].value, SamplePoly());
  EXPECT_EQ(records[1].type, WalRecordType::kOutcome);
  EXPECT_TRUE(records[1].committed);
  EXPECT_EQ(records[2].type, WalRecordType::kTrackItem);
  EXPECT_EQ(records[3].site, kS1);
  EXPECT_EQ(records[6].type, WalRecordType::kPrepared);
  EXPECT_EQ(records[6].writes.at("k"), SamplePoly());
  EXPECT_EQ(records[7].type, WalRecordType::kPreparedResolved);
}

TEST_F(WalTest, AppendAcrossReopens) {
  {
    auto wal = Wal::Open(path_).value();
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT1, true)).ok());
  }
  {
    auto wal = Wal::Open(path_).value();
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT2, false)).ok());
  }
  const auto records = Wal::ReplayFile(path_).value();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].txn, kT1);
  EXPECT_EQ(records[1].txn, kT2);
}

TEST_F(WalTest, TornTailIsDroppedSilently) {
  {
    auto wal = Wal::Open(path_).value();
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT1, true)).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT2, false)).ok());
  }
  // Truncate mid-way through the last record.
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), data.size() - 3);
  out.close();

  const auto records = Wal::ReplayFile(path_).value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn, kT1);
}

TEST_F(WalTest, MidFileCorruptionIsDataLoss) {
  {
    auto wal = Wal::Open(path_).value();
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT1, true)).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT2, false)).ok());
  }
  // Flip a byte inside the FIRST record's body.
  std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(9);
  char byte;
  file.seekg(9);
  file.get(byte);
  byte ^= 0x40;
  file.seekp(9);
  file.put(byte);
  file.close();

  const auto records = Wal::ReplayFile(path_);
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
}

TEST_F(WalTest, RecoverSiteStateRebuildsStores) {
  {
    auto wal = Wal::Open(path_).value();
    ASSERT_TRUE(wal->Append(WalRecord::Write("a", SamplePoly())).ok());
    ASSERT_TRUE(wal->Append(WalRecord::TrackItem(kT1, "a")).ok());
    ASSERT_TRUE(wal->Append(WalRecord::TrackSite(kT1, kS1)).ok());
    ASSERT_TRUE(
        wal->Append(WalRecord::Write("b", PolyValue::Certain(Value::Int(9))))
            .ok());
  }
  ItemStore items;
  OutcomeTable outcomes;
  const auto records = Wal::ReplayFile(path_).value();
  ASSERT_TRUE(RecoverSiteState(records, &items, &outcomes).ok());
  EXPECT_EQ(items.Read("a").value(), SamplePoly());
  EXPECT_EQ(items.Read("b").value().certain_value(), Value::Int(9));
  EXPECT_TRUE(outcomes.IsTracking(kT1));
  const auto entry = outcomes.EntryFor(kT1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->dependent_items.count("a"), 1u);
  EXPECT_EQ(entry->downstream_sites.count(kS1), 1u);
}

TEST_F(WalTest, RecoveryAppliesReductionsInOrder) {
  {
    auto wal = Wal::Open(path_).value();
    ASSERT_TRUE(wal->Append(WalRecord::Write("a", SamplePoly())).ok());
    ASSERT_TRUE(wal->Append(WalRecord::TrackItem(kT1, "a")).ok());
    // The site learned the outcome and wrote the reduced value before the
    // crash.
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT1, true)).ok());
    ASSERT_TRUE(
        wal->Append(
               WalRecord::Write("a", PolyValue::Certain(Value::Int(10))))
            .ok());
  }
  ItemStore items;
  OutcomeTable outcomes;
  ASSERT_TRUE(RecoverSiteState(Wal::ReplayFile(path_).value(), &items,
                               &outcomes)
                  .ok());
  EXPECT_EQ(items.Read("a").value().certain_value(), Value::Int(10));
  EXPECT_FALSE(outcomes.IsTracking(kT1));
  EXPECT_EQ(outcomes.KnownOutcome(kT1), true);
}

TEST_F(WalTest, SyncSucceeds) {
  auto wal = Wal::Open(path_, /*sync_every_append=*/true).value();
  EXPECT_TRUE(wal->Append(WalRecord::Outcome(kT1, true)).ok());
  EXPECT_TRUE(wal->Sync().ok());
}

// Flush-only logging hands the OS one write per Flush() barrier: an
// append sits in the log's buffer until then, and afterwards every
// record is readable while the log is still open — which is all a
// process crash leaves behind.
TEST_F(WalTest, FlushOnlyRecordsReachTheFileAtFlush) {
  auto wal = Wal::Open(path_).value();
  ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT1, true)).ok());
  ASSERT_TRUE(wal->Append(WalRecord::TrackItem(kT2, "k")).ok());
  ASSERT_TRUE(wal->Append(WalRecord::Write("k", SamplePoly())).ok());
  EXPECT_TRUE(Wal::ReplayFile(path_).value().empty());
  EXPECT_EQ(wal->batches_flushed(), 0u);

  ASSERT_TRUE(wal->Flush().ok());
  auto records = Wal::ReplayFile(path_).value();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].txn, kT1);
  EXPECT_EQ(records[2].value, SamplePoly());
  EXPECT_EQ(wal->batches_flushed(), 1u);
  EXPECT_EQ(wal->records_flushed(), 3u);

  // A barrier with nothing new to write costs no write.
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(wal->batches_flushed(), 1u);

  ASSERT_TRUE(wal->Append(WalRecord::ForgetTxn(kT2)).ok());
  ASSERT_TRUE(wal->Flush().ok());
  records = Wal::ReplayFile(path_).value();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[3].type, WalRecordType::kForgetTxn);
  EXPECT_EQ(wal->batches_flushed(), 2u);
  EXPECT_EQ(wal->records_flushed(), 4u);
  EXPECT_EQ(wal->records_appended(), 4u);
}

// Records that leave in one flush keep one frame each, so a write torn
// anywhere inside the last frame loses that record only.
TEST_F(WalTest, FlushOnlyTornTailDropsOnlyTheLastRecord) {
  auto wal = Wal::Open(path_).value();
  ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT1, true)).ok());
  ASSERT_TRUE(wal->Append(WalRecord::Write("k", SamplePoly())).ok());
  ASSERT_TRUE(wal->Append(WalRecord::Outcome(kT2, false)).ok());
  ASSERT_TRUE(wal->Flush().ok());
  ASSERT_EQ(wal->batches_flushed(), 1u);

  std::ifstream in(path_, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  const size_t last_frame = 8 + WalRecord::Outcome(kT2, false).Encode().size();
  ASSERT_GT(data.size(), last_frame);
  const std::string torn_path = path_ + ".torn";
  for (size_t cut = 1; cut < last_frame; ++cut) {
    SCOPED_TRACE(cut);
    {
      std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
      out.write(data.data(), data.size() - cut);
    }
    const auto records = Wal::ReplayFile(torn_path).value();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].txn, kT1);
    EXPECT_EQ(records[1].key, "k");
  }
  std::remove(torn_path.c_str());
}

}  // namespace
}  // namespace polyvalue

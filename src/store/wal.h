// Per-site write-ahead log.
//
// A site logs every durable state change — item writes (including
// polyvalue installs and reductions), learned transaction outcomes, and
// outcome-table bookkeeping — before applying it. After a crash,
// ReplayFile() reconstructs the records and recovery.h rebuilds the
// ItemStore and OutcomeTable, so a site that failed during the in-doubt
// window wakes up still knowing which polyvalues it owes reductions for.
//
// On-disk format, per frame:
//     [u32 body_len][u32 crc32(body)][body]
// A body is either a single encoded record or — under group commit — a
// batch container (tag kWalBatchTag) holding several records written and
// fsynced as one unit. A torn tail (truncated or CRC-failing final
// frame, or a CRC failure after which no intact frame chain follows) is
// detected and ignored — those writes were never acknowledged.
// Corruption *before* an intact suffix is reported as DATA_LOSS.
//
// Sync policies:
//   kFlushOnly   — appends go to the stdio buffer, one frame per record;
//                  Flush() hands everything buffered to the OS with one
//                  fflush (one write(2)), never an fsync. Durable against
//                  process death once flushed, not against power loss
//                  (fast, default).
//   kEveryAppend — fflush + fsync per append (the honest per-record
//                  durability story; slow).
//   kGroupCommit — appends only buffer in memory; Flush() coalesces every
//                  buffered record into ONE batch frame + fsync.
// The engine calls Flush() before releasing any externally visible
// effect (message send, client callback), so under kFlushOnly and
// kGroupCommit an acknowledged write has always reached the OS (and,
// under group commit, the disk), while the records of one engine step —
// and of concurrent transactions — share one physical write.
#ifndef SRC_STORE_WAL_H_
#define SRC_STORE_WAL_H_

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/poly/polyvalue.h"

namespace polyvalue {

enum class WalRecordType : uint8_t {
  kWrite = 1,       // key + polyvalue
  kOutcome = 2,     // txn + committed flag
  kTrackItem = 3,   // txn + key  (outcome table: local dependent item)
  kTrackSite = 4,   // txn + site (outcome table: downstream site)
  kUntrackItem = 5, // txn + key  (dependency overwritten)
  kForgetTxn = 6,   // txn        (outcome table entry deleted)
  kPrepared = 7,    // txn + coordinator site + pending writes (READY vote)
  kPreparedResolved = 8,  // txn (participation finished / policy applied)
};

// First body byte of a group-commit batch frame. Outside the
// WalRecordType range, so a batch container can never be confused with a
// single record (and old readers fail loudly instead of misparsing).
inline constexpr uint8_t kWalBatchTag = 0xB7;

struct WalRecord {
  WalRecordType type;
  ItemKey key;
  PolyValue value;
  TxnId txn;
  bool committed = false;
  SiteId site;
  std::map<ItemKey, PolyValue> writes;  // kPrepared only

  static WalRecord Write(ItemKey key, PolyValue value);
  static WalRecord Outcome(TxnId txn, bool committed);
  static WalRecord TrackItem(TxnId txn, ItemKey key);
  static WalRecord TrackSite(TxnId txn, SiteId site);
  static WalRecord UntrackItem(TxnId txn, ItemKey key);
  static WalRecord ForgetTxn(TxnId txn);
  static WalRecord Prepared(TxnId txn, SiteId coordinator,
                            std::map<ItemKey, PolyValue> writes);
  static WalRecord PreparedResolved(TxnId txn);

  std::string Encode() const;
  static Result<WalRecord> Decode(const std::string& body);
};

class Wal {
 public:
  enum class SyncPolicy : uint8_t {
    kFlushOnly,    // buffer frames in stdio; Flush() does one fflush
    kEveryAppend,  // write + fflush + fsync per append
    kGroupCommit,  // buffer appends; Flush() writes one batch + fsync
  };

  struct Options {
    SyncPolicy sync_policy = SyncPolicy::kFlushOnly;
    // Group commit only: how long a flushing thread lingers (wall clock)
    // with the buffer open so concurrent appenders can join the batch.
    // 0 = flush immediately (still coalesces whatever is already
    // buffered; deterministic under the simulator).
    double group_window_seconds = 0.0;
    // Group commit only: buffered records that trigger an inline flush
    // without waiting for the Flush() barrier.
    size_t max_batch = 128;
  };

  // Opens (creating or appending to) the log at `path`.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           Options options);
  // Back-compat convenience: `sync_every_append` maps to kEveryAppend.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           bool sync_every_append = false);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  Status Append(const WalRecord& record);

  // Durability barrier: returns once every record appended before this
  // call is as durable as the policy promises. kFlushOnly: one fflush of
  // the buffered frames (nothing to do when none are buffered).
  // kGroupCommit: one coalesced write + fsync, shared with concurrent
  // callers. kEveryAppend: no-op, its appends are already synced.
  Status Flush();

  // Strong barrier: Flush() plus an unconditional fsync.
  Status Sync();

  // Truncates the log to empty (after a successful snapshot has captured
  // everything the log recorded). Discards any unflushed buffered
  // records — the snapshot preceding a Reset captures live state, which
  // supersedes them.
  Status Reset();

  const std::string& path() const { return path_; }
  uint64_t records_appended() const;

  // Physical writes (a kFlushOnly fflush, a kGroupCommit batch frame, a
  // kEveryAppend record) and the records they carried.
  uint64_t batches_flushed() const;
  uint64_t records_flushed() const;

  // Reads every intact record from the file. A torn final frame is
  // silently dropped; earlier corruption returns DATA_LOSS.
  static Result<std::vector<WalRecord>> ReplayFile(const std::string& path);

 private:
  Wal(std::string path, std::FILE* file, Options options)
      : path_(std::move(path)), options_(options), file_(file) {}

  // Writes `bodies` as one frame (batch container for >1) to `file` and
  // syncs. Caller must NOT hold mu_ — file writes happen outside the
  // lock; `file` is the pointer read under mu_ before unlocking, and the
  // flushing_ token keeps Reset() from replacing it mid-write.
  static Status WriteAndSync(const std::vector<std::string>& bodies,
                             std::FILE* file);

  const std::string path_;
  const Options options_;
  mutable Mutex mu_ POLYV_MUTEX_RANK(kWal);
  CondVar cv_;
  // Replaced by Reset() under mu_; flushes read it under mu_ and write
  // outside the lock, fenced by flushing_ (Reset waits for !flushing_).
  std::FILE* file_ GUARDED_BY(mu_);
  // Group commit: encoded record bodies awaiting the next flush.
  std::vector<std::string> pending_ GUARDED_BY(mu_);
  bool flushing_ GUARDED_BY(mu_) = false;
  uint64_t appended_seq_ GUARDED_BY(mu_) = 0;  // records accepted by Append
  uint64_t durable_seq_ GUARDED_BY(mu_) = 0;   // covered by a flush
  uint64_t records_appended_ GUARDED_BY(mu_) = 0;
  uint64_t batches_flushed_ GUARDED_BY(mu_) = 0;
  uint64_t records_flushed_ GUARDED_BY(mu_) = 0;
};

}  // namespace polyvalue

#endif  // SRC_STORE_WAL_H_

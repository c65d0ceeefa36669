// A site: one autonomous node of the distributed database.
//
// Binds together the per-site pieces — item store, outcome table, the
// configured leg's commit engine, optional write-ahead log (written only
// by the 2PC leg) — and connects them to a Transport endpoint. The same
// Site class runs on the deterministic simulator and on the threaded/TCP
// runtimes; only the injected Transport and Scheduler differ.
#ifndef SRC_SYSTEM_SITE_H_
#define SRC_SYSTEM_SITE_H_

#include <memory>
#include <string>

#include "src/common/check.h"
#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/net/transport.h"
#include "src/paxos/paxos_engine.h"
#include "src/store/item_store.h"
#include "src/store/outcome_table.h"
#include "src/store/wal.h"
#include "src/txn/engine.h"
#include "src/txn/scheduler.h"

namespace polyvalue {

class Site {
 public:
  struct Options {
    EngineConfig engine;
    // Factory for reads of missing items (nullptr: strict NOT_FOUND).
    ItemStore::DefaultFactory default_factory;
    // Path for the WAL; empty disables durability.
    std::string wal_path;
    // WAL durability/batching knobs (sync policy, group-commit window).
    // The default is today's behaviour: buffered writes, explicit sync.
    Wal::Options wal;
    // Item-store data-plane shards (lock granularity for concurrent
    // reads/installs; does not affect observable behaviour).
    size_t store_shards = ItemStore::kDefaultShards;
    // Optional protocol trace sink; attached to the engine and the WAL
    // replay path. Null costs nothing.
    TraceSink* trace = nullptr;
  };

  // `transport` and `scheduler` must outlive the site.
  Site(SiteId id, Transport* transport, Scheduler* scheduler,
       Options options);
  Site(SiteId id, Transport* transport, Scheduler* scheduler)
      : Site(id, transport, scheduler, Options()) {}
  ~Site();

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  // Registers the transport endpoint and, when a WAL path is configured,
  // restores durable state: the latest snapshot (if any) first, then the
  // WAL tail. Call once before traffic.
  Status Start();

  // Captures a snapshot of all durable state (items, outcome table,
  // prepared votes, decisions) to "<wal_path>.snap" and truncates the
  // WAL. Requires a configured WAL path. The write is atomic
  // (temp + rename): a crash mid-checkpoint leaves the previous
  // snapshot + full WAL intact.
  Status Checkpoint();

  SiteId id() const { return id_; }
  ItemStore& store() { return items_; }
  const ItemStore& store() const { return items_; }
  OutcomeTable& outcomes() { return outcomes_; }
  // The 2PC leg's engine; CHECK-fails on a Paxos Commit site, which
  // builds no TxnEngine.
  TxnEngine& engine() {
    POLYV_CHECK_MSG(runs_2pc(), "site " << id_ << " runs Paxos Commit");
    return static_cast<TxnEngine&>(*protocol_);
  }
  // The protocol leg this site runs (Submit/packet routing).
  CommitProtocol& protocol() { return *protocol_; }
  // Null until Start(), or when no WAL path is configured.
  const Wal* wal() const { return wal_.get(); }

  // Seeds an item with a certain value (initial database load).
  void Load(const ItemKey& key, Value value);

  // Submits a transaction coordinated by this site.
  TxnId Submit(TxnSpec spec, TxnCallback callback);

  // Reads an item's current (poly)value directly (local inspection).
  Result<PolyValue> Peek(const ItemKey& key) const;

  // The outcome the active protocol leg has durably decided for `txn`
  // at this site, if any (protocol-agnostic audit hook).
  std::optional<bool> DecidedOutcome(TxnId txn) const;

  // One-look operational summary of a site.
  struct Stats {
    size_t items = 0;
    size_t uncertain_items = 0;
    size_t locked_items = 0;
    size_t tracked_transactions = 0;  // unknown-outcome txns in the table
    EngineMetrics engine;
  };
  Stats GetStats() const;

  // §3.4's second option: withholds an uncertain value until every
  // transaction it depends on resolves, then delivers the one true Value.
  // Fires immediately for certain inputs. The callback runs at most once;
  // it is dropped if this site crashes first. Only a 2PC site can hold an
  // uncertain value (the Paxos leg installs only certain ones), so an
  // uncertain `value` on a Paxos Commit site is a CHECK failure.
  void AwaitCertain(const PolyValue& value,
                    std::function<void(const Value&)> callback);

  // --- failure simulation ---
  // Marks the site down in `faults` (if given) and drops volatile engine
  // state, as a real crash would.
  void Crash(FaultPlan* faults = nullptr);
  // Brings the site back: clears the fault, re-applies the in-doubt
  // policy to surviving prepared transactions, restarts inquiries.
  void Recover(FaultPlan* faults = nullptr);
  bool crashed() const { return crashed_; }

 private:
  void OnPacket(Packet packet);
  bool runs_2pc() const {
    return options_.engine.leg == ProtocolLeg::kTwoPhase;
  }

  const SiteId id_;
  Transport* const transport_;
  Scheduler* const scheduler_;
  Options options_;
  ItemStore items_;
  OutcomeTable outcomes_;
  std::unique_ptr<Wal> wal_;
  // The one engine the configured ProtocolLeg selects (a TxnEngine or a
  // PaxosEngine); all Submit calls and incoming packets route here.
  std::unique_ptr<CommitProtocol> protocol_;
  bool started_ = false;
  bool crashed_ = false;
};

}  // namespace polyvalue

#endif  // SRC_SYSTEM_SITE_H_

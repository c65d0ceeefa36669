#include "src/system/site.h"

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/store/recovery.h"
#include "src/store/snapshot.h"

namespace polyvalue {

Site::Site(SiteId id, Transport* transport, Scheduler* scheduler,
           Options options)
    : id_(id),
      transport_(transport),
      scheduler_(scheduler),
      options_(std::move(options)),
      items_(options_.default_factory, options_.store_shards) {
  // Both legs hand over encoded bytes; the site only addresses them.
  const auto send = [this](SiteId to, std::string payload) {
    const Status s = transport_->Send(Packet{id_, to, std::move(payload)});
    if (!s.ok()) {
      POLYV_DEBUG << id_ << " send to " << to << " failed: " << s;
    }
  };
  if (runs_2pc()) {
    protocol_ = std::make_unique<TxnEngine>(id_, &items_, &outcomes_,
                                            scheduler, send, options_.engine);
  } else {
    protocol_ = std::make_unique<PaxosEngine>(id_, &items_, scheduler, send,
                                              options_.engine);
  }
  if (options_.trace != nullptr) {
    protocol_->AttachTrace(options_.trace);
  }
}

Site::~Site() {
  if (started_) {
    (void)transport_->Unregister(id_);
  }
}

Status Site::Start() {
  if (started_) {
    return FailedPreconditionError("site already started");
  }
  if (!options_.wal_path.empty()) {
    // Snapshot first (if one exists and is intact), then the WAL tail.
    const std::string snap_path = options_.wal_path + ".snap";
    const Result<SiteSnapshot> snapshot = ReadSnapshotFile(snap_path);
    if (snapshot.ok()) {
      RestoreStores(snapshot.value(), &items_, &outcomes_);
      if (runs_2pc()) {
        engine().ImportDurableState(snapshot.value());
      }
    } else if (snapshot.status().code() != StatusCode::kNotFound) {
      POLYV_WARN << id_ << " ignoring unreadable snapshot: "
                 << snapshot.status();
    }
    POLYV_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                           Wal::ReplayFile(options_.wal_path));
    POLYV_RETURN_IF_ERROR(RecoverSiteState(records, &items_, &outcomes_,
                                           options_.trace, id_));
    POLYV_ASSIGN_OR_RETURN(wal_, Wal::Open(options_.wal_path, options_.wal));
    if (runs_2pc()) {
      engine().RestoreDurableState(records);
      engine().AttachWal(wal_.get());
    }
  }
  POLYV_RETURN_IF_ERROR(transport_->Register(
      id_, [this](Packet packet) { OnPacket(std::move(packet)); }));
  started_ = true;
  return OkStatus();
}

Status Site::Checkpoint() {
  if (wal_ == nullptr) {
    return FailedPreconditionError("site has no WAL configured");
  }
  SiteSnapshot snapshot = CaptureStores(items_, outcomes_);
  if (runs_2pc()) {
    engine().ExportDurableState(&snapshot);
  }
  POLYV_RETURN_IF_ERROR(
      WriteSnapshotFile(snapshot, options_.wal_path + ".snap"));
  if (options_.trace != nullptr) {
    TraceEvent event;
    event.time = scheduler_->Now();
    event.type = TraceEventType::kCheckpoint;
    event.site = id_;
    event.arg = snapshot.items.size();
    options_.trace->Emit(event);
  }
  return wal_->Reset();
}

void Site::OnPacket(Packet packet) {
  Result<Message> msg = Message::Decode(packet.payload);
  if (!msg.ok()) {
    POLYV_WARN << id_ << " dropping malformed packet from " << packet.from
               << ": " << msg.status();
    return;
  }
  protocol_->OnMessage(packet.from, msg.value());
}

void Site::Load(const ItemKey& key, Value value) {
  items_.Write(key, PolyValue::Certain(std::move(value)));
}

TxnId Site::Submit(TxnSpec spec, TxnCallback callback) {
  return protocol_->Submit(std::move(spec), std::move(callback));
}

Result<PolyValue> Site::Peek(const ItemKey& key) const {
  return items_.Read(key);
}

Site::Stats Site::GetStats() const {
  Stats stats;
  stats.items = items_.size();
  stats.uncertain_items = items_.UncertainCount();
  stats.locked_items = items_.locked_count();
  stats.tracked_transactions = outcomes_.tracked_count();
  stats.engine = protocol_->metrics();
  return stats;
}

std::optional<bool> Site::DecidedOutcome(TxnId txn) const {
  return protocol_->DecidedOutcome(txn);
}

void Site::AwaitCertain(const PolyValue& value,
                        std::function<void(const Value&)> callback) {
  const std::vector<TxnId> deps = value.Dependencies();
  if (deps.empty()) {
    callback(value.certain_value());
    return;
  }
  // A Paxos site never holds one: that leg installs only certain values.
  POLYV_CHECK_MSG(runs_2pc(), "uncertain value on a Paxos Commit site");
  // Shared accumulator: each dependency resolution records its outcome;
  // the last one computes the final value.
  struct Pending {
    PolyValue value;
    std::unordered_map<TxnId, bool> outcomes;
    size_t remaining;
    std::function<void(const Value&)> callback;
  };
  auto pending = std::make_shared<Pending>();
  pending->value = value;
  pending->remaining = deps.size();
  pending->callback = std::move(callback);
  for (TxnId dep : deps) {
    engine().SubscribeOutcome(dep, [pending, dep](bool committed) {
      pending->outcomes.emplace(dep, committed);
      if (--pending->remaining == 0) {
        const Result<Value> final_value =
            pending->value.ValueUnder(pending->outcomes);
        if (final_value.ok()) {
          pending->callback(final_value.value());
        }
      }
    });
  }
}

void Site::Crash(FaultPlan* faults) {
  crashed_ = true;
  if (faults != nullptr) {
    faults->SetSiteDown(id_, true);
  }
  protocol_->Crash();
}

void Site::Recover(FaultPlan* faults) {
  crashed_ = false;
  if (faults != nullptr) {
    faults->SetSiteDown(id_, false);
  }
  protocol_->Recover();
}

}  // namespace polyvalue

// Workloads: a closed loop of clients issuing transfers (and, on one
// workload, increments) against a cluster, timed from the client side.
//
// Each repetition builds a fresh cluster, loads it, runs a fixed warm-up,
// then a fixed number of measured operations, then quiesces until no
// item is uncertain and checks the outcome. Fixed counts (not durations)
// keep memory and per-commit counts comparable between runs; the
// repetition loop fills the run's time budget.
//
// An operation is one client request. An attempt that aborts (lock
// conflict, timeout) is retried after a short backoff; the operation
// fails only if it never commits. commit_frac counts attempts, so every
// abort shows there.
#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "harness.h"
#include "src/common/rng.h"
#include "src/net/sim_transport.h"
#include "src/net/tcp_transport.h"
#include "src/obs/audit.h"
#include "src/system/cluster.h"
#include "src/txn/messages.h"
#include "src/workload/distribution.h"

namespace perfbench {
namespace {

using namespace polyvalue;
namespace fs = std::filesystem;

// ---- workload definitions -------------------------------------------------

struct Shape {
  std::string name;
  bool tcp = false;
  size_t sites = 3;
  ProtocolLeg leg = ProtocolLeg::kTwoPhase;
  double drop = 0;       // per-message drop probability (sim only)
  bool wal = false;
  size_t clients = 64;
  uint64_t keys_per_site = 100;
  KeyDistParams dist;
  size_t participants = 2;       // sites per transfer
  double increment_share = 0;    // share of single-item increments
  size_t warmup_ops = 0;
  size_t measured_ops = 0;
  int64_t initial_balance = 1000;
  // Engine timeouts (seconds); 0 keeps EngineConfig's default.
  double vote_timeout = 0;  // prepare_timeout and ready_timeout
  double wait_timeout = 0;
};

Shape ShapeFor(const std::string& name) {
  Shape s;
  s.name = name;
  if (name == "tcp_wal_2pc") {
    // Real threads and sockets; uniform keys over a keyspace much larger
    // than the CPU caches, so conflicts are rare and P stays near 0. Two
    // client threads leave a core free for the sites' I/O threads: with
    // four, on a 4-vCPU host, run-to-run p99 spread tripled.
    s.tcp = true;
    s.sites = 3;
    s.wal = true;
    s.clients = 2;
    s.keys_per_site = 200000;
    s.dist.kind = KeyDistKind::kUniform;
    s.participants = 2;
    s.warmup_ops = 1000;
    s.measured_ops = 12000;
  } else if (name == "sim_lossy_poly") {
    // Lost READY/decision messages open in-doubt windows over hot keys:
    // the polyvalue, polytransaction and outcome-propagation path.
    // Timeouts are sized to the 1-3 ms links so stale locks clear fast
    // and in-doubt items become polyvalues after 20 ms.
    s.sites = 3;
    s.drop = 0.02;
    s.wal = true;
    s.clients = 64;
    s.keys_per_site = 2000;
    s.dist.kind = KeyDistKind::kZipfian;
    s.dist.zipf_theta = 0.5;
    s.participants = 2;
    s.increment_share = 0.25;
    s.vote_timeout = 0.03;
    s.wait_timeout = 0.02;
    s.warmup_ops = 2000;
    s.measured_ops = 20000;
  } else if (name == "sim_paxos_hot") {
    // Paxos Commit with five acceptors, three-participant transfers over
    // hot keys: acceptor fan-out and lock-conflict aborts, no WAL.
    s.sites = 5;
    s.leg = ProtocolLeg::kPaxosCommit;
    s.clients = 64;
    s.keys_per_site = 1000;
    s.dist.kind = KeyDistKind::kZipfian;
    s.dist.zipf_theta = 0.5;
    s.participants = 3;
    s.warmup_ops = 2000;
    s.measured_ops = 15000;
  } else {
    s.name.clear();
  }
  return s;
}

ItemKey KeyName(size_t site, uint64_t index) {
  ItemKey key = "s";
  key += std::to_string(site);
  key += '/';
  key += std::to_string(index);
  return key;
}

struct Op {
  size_t coordinator = 0;
  std::vector<std::pair<size_t, uint64_t>> keys;  // (site index, key index)
  int64_t amount = 1;
  bool increment = false;
};

// A client's next operation. Transfers start at the client's home site
// and move `amount` from the home item to one item on each other
// participant; an increment adds 1 to one item anywhere.
Op NextOp(const Shape& shape, size_t home, const KeyDistribution& dist,
          Rng* rng) {
  Op op;
  op.coordinator = home;
  if (shape.increment_share > 0 && rng->NextBool(shape.increment_share)) {
    op.increment = true;
    op.keys.emplace_back(rng->NextBelow(shape.sites), dist.Pick(rng));
    return op;
  }
  op.amount = rng->NextInt(1, 10);
  std::vector<size_t> sites{home};
  while (sites.size() < shape.participants) {
    const size_t s = rng->NextBelow(shape.sites);
    if (std::find(sites.begin(), sites.end(), s) == sites.end()) {
      sites.push_back(s);
    }
  }
  for (size_t s : sites) {
    op.keys.emplace_back(s, dist.Pick(rng));
  }
  return op;
}

// Counts (and, when traced, times) every call of the bench's TxnLogic.
struct LogicProbe {
  SpanRecorder* spans = nullptr;
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> nanos{0};
};

TxnSpec MakeSpec(const Op& op, LogicProbe* probe) {
  TxnSpec spec;
  std::vector<ItemKey> names;
  for (const auto& [site, index] : op.keys) {
    names.push_back(KeyName(site, index));
    spec.ReadWrite(names.back(), SiteId(site + 1));
  }
  const int64_t amount = op.amount;
  const bool increment = op.increment;
  spec.Logic([names, amount, increment, probe](const TxnReads& reads) {
    int64_t span = -1;
    double start = 0;
    if (probe != nullptr) {
      start = WallSeconds();
      span = probe->spans->Open(SpanKind::kLogic, 0);
    }
    TxnEffect effect;
    if (increment) {
      const int64_t v = reads.IntAt(names[0]) + 1;
      effect.writes[names[0]] = Value::Int(v);
      effect.output = Value::Int(v);
    } else {
      const int64_t from =
          reads.IntAt(names[0]) - amount * static_cast<int64_t>(names.size() - 1);
      effect.writes[names[0]] = Value::Int(from);
      for (size_t i = 1; i < names.size(); ++i) {
        effect.writes[names[i]] = Value::Int(reads.IntAt(names[i]) + amount);
      }
      effect.output = Value::Int(from);
    }
    if (probe != nullptr) {
      probe->spans->Close(span);
      probe->calls.fetch_add(1, std::memory_order_relaxed);
      probe->nanos.fetch_add(
          static_cast<uint64_t>((WallSeconds() - start) * 1e9),
          std::memory_order_relaxed);
    }
    return effect;
  });
  return spec;
}

bool IsLockConflict(const std::string& reason) {
  return reason.find("locked by") != std::string::npos ||
         reason.find("wait-die") != std::string::npos;
}

constexpr int kMaxAttempts = 200;

// ---- per-repetition results ---------------------------------------------

struct Attempt {
  uint64_t txn = 0;
  double start = 0;  // run clock: virtual on the simulator, wall on TCP
  double end = 0;
  double wall_start = 0;
  double wall_end = 0;
  bool committed = false;
  bool certain = false;
};

// Counters read at the edges of the measured window.
struct Counters {
  EngineMetrics engine;
  uint64_t sim_events = 0;
  uint64_t wal_records = 0;
  uint64_t wal_batches = 0;
  uint64_t wal_bytes = 0;
  uint64_t sends = 0;
  uint64_t bytes = 0;
  uint64_t logic_calls = 0;
  uint64_t logic_nanos = 0;
  uint64_t trace_events = 0;
  size_t uncertain = 0;
  double clock = 0;  // run clock
  double wall = 0;
  double cpu = 0;
  double ref_cpu = 0;  // reference loop CPU so far, part of `cpu`
  double rss_mb = 0;
};

struct Rep {
  // client view of the measured window
  uint64_t ops = 0;
  uint64_t ops_failed = 0;
  uint64_t aborts = 0;
  uint64_t conflict_aborts = 0;
  uint64_t increments = 0;  // committed increments, warm-up included
  std::vector<Attempt> attempts;
  double setup_seconds = 0;
  double ref_seconds_per_iter = 0;  // reference loop speed over the rep
  double peak_rss_mb = 0;  // ru_maxrss when the repetition ended
  Counters begin;
  Counters end;
  std::vector<std::string> errors;
  // traced repetitions only
  bool traced = false;
  std::vector<TraceEvent> trace;
  std::vector<double> trace_wall;  // wall time of each trace event
  std::vector<Span> spans;
  std::vector<std::string> payloads;

  uint64_t commits() const {
    uint64_t n = 0;
    for (const Attempt& a : attempts) {
      n += a.committed ? 1 : 0;
    }
    return n;
  }
  double window() const { return end.clock - begin.clock; }
  // Process CPU of the window, less the reference slices run in it.
  double CpuPerCommitUs() const {
    const uint64_t c = commits();
    const double cpu = (end.cpu - begin.cpu) - (end.ref_cpu - begin.ref_cpu);
    return c == 0 ? 0.0 : cpu * 1e6 / static_cast<double>(c);
  }
  // The same CPU in reference-loop iterations.
  double CpuRefPerCommit() const {
    return ref_seconds_per_iter == 0
               ? 0.0
               : CpuPerCommitUs() * 1e-6 / ref_seconds_per_iter;
  }
  std::vector<double> LatenciesMs() const {
    std::vector<double> out;
    for (const Attempt& a : attempts) {
      if (a.committed) {
        out.push_back((a.end - a.start) * 1e3);
      }
    }
    return out;
  }
};

// Outcome bookkeeping shared by the simulated and the TCP clients.
struct ClientLog {
  std::mutex mu;
  Rep* rep = nullptr;
  bool measured = false;

  void Record(const Attempt& attempt, const TxnResult& result,
              const Op& op) {
    std::lock_guard<std::mutex> lock(mu);
    rep->increments += result.committed() && op.increment ? 1 : 0;
    if (!measured) {
      return;
    }
    rep->attempts.push_back(attempt);
    if (!result.committed()) {
      ++rep->aborts;
      rep->conflict_aborts += IsLockConflict(result.abort_reason) ? 1 : 0;
    }
  }
  void Error(const std::string& error) {
    std::lock_guard<std::mutex> lock(mu);
    rep->errors.push_back(error);
  }
  void Finish(bool ok) {
    if (!measured) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu);
    ++rep->ops;
    rep->ops_failed += ok ? 0 : 1;
  }
};

void ClearDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

// ---- the simulated runtime -------------------------------------------------

// SimCluster's assembly with a TracingTransport between the sites and the
// SimTransport. Construction mirrors SimCluster step for step (same
// seed, same random draws), so a traced run replays the untraced
// schedule exactly; RunBenchmark checks that it does.
class TracedSimCluster {
 public:
  explicit TracedSimCluster(SimCluster::Options options)
      : options_(std::move(options)), rng_(options_.seed) {
    if (options_.engine.cluster_sites == 0) {
      options_.engine.cluster_sites = options_.site_count;
    }
    faults_.SetDelayRange(options_.min_delay, options_.max_delay);
    transport_ = std::make_unique<SimTransport>(&sim_, &faults_, &rng_);
    transport_->set_trace(options_.trace);
    tracing_ = std::make_unique<TracingTransport>(transport_.get(), &spans_);
    scheduler_ = std::make_unique<SimScheduler>(&sim_);
    for (size_t i = 0; i < options_.site_count; ++i) {
      Site::Options site_options;
      site_options.engine = options_.engine;
      site_options.default_factory = options_.default_factory;
      site_options.trace = options_.trace;
      site_options.store_shards = options_.store_shards;
      if (!options_.wal_dir.empty()) {
        site_options.wal_path =
            options_.wal_dir + "/site" + std::to_string(i) + ".wal";
        site_options.wal = options_.wal;
      }
      auto site = std::make_unique<Site>(SiteId(i + 1), tracing_.get(),
                                         scheduler_.get(), site_options);
      if (!site->Start().ok()) {
        std::fprintf(stderr, "site %zu failed to start\n", i);
        std::abort();
      }
      sites_.push_back(std::move(site));
    }
  }

  size_t size() const { return sites_.size(); }
  Site& site(size_t index) { return *sites_[index]; }
  Simulator& sim() { return sim_; }
  FaultPlan& faults() { return faults_; }
  SimTransport& transport() { return *transport_; }
  SpanRecorder& spans() { return spans_; }
  TracingTransport& tracing() { return *tracing_; }

  void Load(size_t index, const ItemKey& key, Value value) {
    sites_[index]->Load(key, std::move(value));
  }
  TxnId Submit(size_t index, TxnSpec spec, TxnCallback callback) {
    return sites_[index]->Submit(std::move(spec), std::move(callback));
  }

 private:
  SimCluster::Options options_;
  Simulator sim_;
  FaultPlan faults_;
  Rng rng_;
  SpanRecorder spans_{[this] { return sim_.now(); }};
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<TracingTransport> tracing_;
  std::unique_ptr<SimScheduler> scheduler_;
  std::vector<std::unique_ptr<Site>> sites_;
};

template <class Cluster>
size_t UncertainItems(Cluster& cluster) {
  size_t total = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    total += cluster.site(i).store().UncertainCount();
  }
  return total;
}

template <class Cluster>
EngineMetrics EngineTotals(Cluster& cluster) {
  EngineMetrics total;
  for (size_t i = 0; i < cluster.size(); ++i) {
    total.Accumulate(cluster.site(i).GetStats().engine);
  }
  return total;
}

template <class Cluster>
void ReadWal(Cluster& cluster, const std::string& dir, Counters* c) {
  for (size_t i = 0; i < cluster.size(); ++i) {
    const Wal* wal = cluster.site(i).wal();
    if (wal != nullptr) {
      c->wal_records += wal->records_appended();
      c->wal_batches += wal->batches_flushed();
    }
  }
  c->wal_bytes = dir.empty() ? 0 : DirBytes(dir);
}

// The reference slices take 10-20% of the window's CPU.
constexpr size_t kStepsPerSlice = 1000;
constexpr int kSliceIterations = 1000;

// Closed loop of virtual clients on the simulator: each client starts
// its next operation as soon as the previous one commits.
template <class Cluster>
class SimClients {
 public:
  SimClients(Cluster* cluster, const Shape& shape, Rng* rng,
             const KeyDistribution* dist, LogicProbe* probe, ClientLog* log)
      : cluster_(cluster), shape_(shape), rng_(rng), dist_(dist),
        probe_(probe), log_(log) {}

  // Runs `ops` operations to completion, running a slice of `reference`
  // (if given) every kStepsPerSlice simulator steps. False if the
  // simulator ran dry or out of time with operations still open.
  bool Run(size_t ops, ReferenceLoop* reference = nullptr) {
    remaining_ = ops;
    for (size_t c = 0; c < shape_.clients && remaining_ > 0; ++c) {
      --remaining_;
      ++in_flight_;
      StartOp(c);
    }
    const double deadline = cluster_->sim().now() + 3600.0;
    size_t steps = 0;
    while (in_flight_ > 0 && cluster_->sim().now() < deadline) {
      if (!cluster_->sim().Step()) {
        break;
      }
      if (reference != nullptr && ++steps % kStepsPerSlice == 0) {
        reference->Run(kSliceIterations);
      }
    }
    return in_flight_ == 0;
  }

 private:
  void StartOp(size_t client) {
    auto op = std::make_shared<Op>(
        NextOp(shape_, client % shape_.sites, *dist_, rng_));
    Submit(client, std::move(op), 1);
  }

  void Submit(size_t client, std::shared_ptr<Op> op, int attempt) {
    Attempt a;
    a.start = cluster_->sim().now();
    a.wall_start = WallSeconds();
    const size_t coordinator = op->coordinator;
    cluster_->Submit(
        coordinator, MakeSpec(*op, probe_),
        [this, client, op, attempt, a](const TxnResult& result) mutable {
          a.txn = result.id.value();
          a.end = cluster_->sim().now();
          a.wall_end = WallSeconds();
          a.committed = result.committed();
          a.certain = result.output.is_certain();
          log_->Record(a, result, *op);
          Simulator& sim = cluster_->sim();
          if (!a.committed && attempt < kMaxAttempts) {
            // Randomised exponential backoff from 2 ms, capped at 128 ms:
            // an item held by an in-doubt participant can stay locked
            // for a second or more.
            const double backoff =
                0.001 * rng_->NextDouble() *
                static_cast<double>(1 << std::min(attempt, 7));
            sim.After(backoff, [this, client, op, attempt] {
              Submit(client, op, attempt + 1);
            });
            return;
          }
          log_->Finish(a.committed);
          if (remaining_ > 0) {
            --remaining_;
            // Next operation from a fresh event: a synchronous callback
            // (local fast path) must not recurse into Submit.
            sim.After(0.0, [this, client] { StartOp(client); });
          } else {
            --in_flight_;
          }
        });
  }

  Cluster* cluster_;
  const Shape& shape_;
  Rng* rng_;
  const KeyDistribution* dist_;
  LogicProbe* probe_;
  ClientLog* log_;
  size_t remaining_ = 0;
  size_t in_flight_ = 0;
};

// Total of every item's certain value; nullopt if any item is uncertain
// or not an integer.
template <class Cluster>
std::optional<int64_t> Balance(Cluster& cluster) {
  int64_t total = 0;
  bool ok = true;
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster.site(i).store().ForEach(
        [&](const ItemKey&, const PolyValue& value) {
          if (!value.is_certain() || !value.certain_value().is_int()) {
            ok = false;
            return;
          }
          total += value.certain_value().int_value();
        });
  }
  return ok ? std::optional<int64_t>(total) : std::nullopt;
}

// Transfers conserve the total; each committed increment adds one.
template <class Cluster>
void CheckBalance(Cluster& cluster, const Shape& shape, Rep* rep) {
  const std::optional<int64_t> balance = Balance(cluster);
  const int64_t expected = static_cast<int64_t>(shape.sites) *
                               static_cast<int64_t>(shape.keys_per_site) *
                               shape.initial_balance +
                           static_cast<int64_t>(rep->increments);
  if (!balance.has_value() || *balance != expected) {
    rep->errors.push_back("balances not conserved");
  }
}

template <class Cluster>
void CheckLocksFree(Cluster& cluster, Rep* rep) {
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.site(i).store().locked_count() != 0) {
      rep->errors.push_back("site " + std::to_string(i) +
                            " still holds locks after quiescing");
    }
  }
}

template <class Cluster>
Rep RunSimRep(Cluster& cluster, const Shape& shape, uint64_t seed,
              const std::string& wal_dir, double setup_start,
              RecordingTraceSink* sink, LogicProbe* probe,
              TracingTransport* tracing) {
  Rep rep;
  if (shape.drop > 0) {
    cluster.faults().SetDropProbability(shape.drop);
  }
  for (size_t s = 0; s < shape.sites; ++s) {
    for (uint64_t k = 0; k < shape.keys_per_site; ++k) {
      cluster.Load(s, KeyName(s, k), Value::Int(shape.initial_balance));
    }
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 7);
  const KeyDistribution dist(shape.dist, shape.keys_per_site);
  ClientLog log;
  log.rep = &rep;
  SimClients<Cluster> clients(&cluster, shape, &rng, &dist, probe, &log);
  if (!clients.Run(shape.warmup_ops)) {
    rep.errors.push_back("warm-up operations never completed");
  }
  rep.setup_seconds = WallSeconds() - setup_start;

  ReferenceLoop reference;
  auto read = [&](Counters* c) {
    c->engine = EngineTotals(cluster);
    c->sim_events = cluster.sim().events_processed();
    c->sends = cluster.transport().packets_sent();
    c->bytes = cluster.transport().bytes_sent();
    ReadWal(cluster, wal_dir, c);
    c->uncertain = UncertainItems(cluster);
    c->clock = cluster.sim().now();
    c->wall = WallSeconds();
    c->cpu = ProcessCpuSeconds();
    c->ref_cpu = reference.cpu_seconds();
    c->rss_mb = CurrentRssMb();
    if (probe != nullptr) {
      c->logic_calls = probe->calls.load();
      c->logic_nanos = probe->nanos.load();
    }
    if (sink != nullptr) {
      c->trace_events = sink->size();
    }
  };
  read(&rep.begin);
  log.measured = true;
  if (tracing != nullptr) {
    tracing->set_capture(true);
  }
  if (!clients.Run(shape.measured_ops, &reference)) {
    rep.errors.push_back("measured operations never completed");
  }
  if (tracing != nullptr) {
    tracing->set_capture(false);
  }
  read(&rep.end);
  rep.ref_seconds_per_iter =
      reference.cpu_seconds() / static_cast<double>(reference.iterations());
  // The window ends at the last callback, not at the last event run.
  double last = rep.begin.clock;
  for (const Attempt& a : rep.attempts) {
    last = std::max(last, a.end);
  }
  rep.end.clock = last;

  // Quiesce: let outcome inquiries resolve every polyvalue.
  for (int i = 0; i < 600 && UncertainItems(cluster) > 0; ++i) {
    cluster.sim().RunUntil(cluster.sim().now() + 0.5);
  }
  cluster.sim().RunUntil(cluster.sim().now() + 1.0);
  if (UncertainItems(cluster) != 0) {
    rep.errors.push_back("items still uncertain after quiescing");
  }
  CheckBalance(cluster, shape, &rep);
  CheckLocksFree(cluster, &rep);
  return rep;
}

// ---- the TCP runtime -----------------------------------------------------------

constexpr int kTcpReferenceIterations = 20000;

void RunTcpClients(ThreadCluster& cluster, const Shape& shape, uint64_t seed,
                   size_t ops, LogicProbe* probe, ClientLog* log) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < shape.clients; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * 0x9E3779B97F4A7C15ull + 1000 + t);
      const KeyDistribution dist(shape.dist, shape.keys_per_site);
      while (next.fetch_add(1) < ops) {
        const Op op = NextOp(shape, t % shape.sites, dist, &rng);
        bool committed = false;
        for (int attempt = 1; attempt <= kMaxAttempts && !committed;
             ++attempt) {
          Attempt a;
          a.start = a.wall_start = WallSeconds();
          const std::optional<TxnResult> result =
              cluster.SubmitAndWait(op.coordinator, MakeSpec(op, probe), 10.0);
          a.end = a.wall_end = WallSeconds();
          if (!result.has_value()) {
            log->Error("a transaction's callback never fired");
            break;
          }
          a.txn = result->id.value();
          a.committed = committed = result->committed();
          a.certain = result->output.is_certain();
          log->Record(a, *result, op);
          if (!committed) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                200 + rng.NextBelow(800)));
          }
        }
        log->Finish(committed);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

Rep RunTcpRep(const Shape& shape, uint64_t seed, const std::string& wal_dir,
              bool traced) {
  const double setup_start = WallSeconds();
  TcpTransport tcp;
  SpanRecorder spans;  // wall clock
  TracingTransport tracing(&tcp, &spans);
  RecordingTraceSink sink;
  LogicProbe probe;
  probe.spans = &spans;
  LogicProbe* logic = traced ? &probe : nullptr;

  ThreadCluster::Options options;
  options.site_count = shape.sites;
  options.seed = seed;
  options.transport = traced ? static_cast<Transport*>(&tracing) : &tcp;
  options.trace = traced ? &sink : nullptr;
  options.wal_dir = wal_dir;  // default sync policy: kFlushOnly
  // Generous protocol timeouts: a busy host must not turn into aborts.
  options.engine.prepare_timeout = 2.0;
  options.engine.ready_timeout = 2.0;
  options.engine.wait_timeout = 1.0;
  auto cluster = std::make_unique<ThreadCluster>(options);
  for (size_t s = 0; s < shape.sites; ++s) {
    for (uint64_t k = 0; k < shape.keys_per_site; ++k) {
      cluster->Load(s, KeyName(s, k), Value::Int(shape.initial_balance));
    }
  }
  Rep rep;
  rep.traced = traced;
  ClientLog log;
  log.rep = &rep;
  RunTcpClients(*cluster, shape, seed, shape.warmup_ops, logic, &log);
  rep.setup_seconds = WallSeconds() - setup_start;

  // Threads share the cores, so the reference loop runs next to the
  // window rather than inside it.
  ReferenceLoop reference;
  auto read = [&](Counters* c) {
    c->engine = cluster->TotalMetrics();
    ReadWal(*cluster, wal_dir, c);
    c->uncertain = UncertainItems(*cluster);
    c->sends = tracing.sends();
    c->bytes = tracing.bytes();
    c->logic_calls = probe.calls.load();
    c->logic_nanos = probe.nanos.load();
    c->trace_events = sink.size();
    c->clock = c->wall = WallSeconds();
    c->cpu = ProcessCpuSeconds();
    c->rss_mb = CurrentRssMb();
  };
  reference.Run(kTcpReferenceIterations);
  read(&rep.begin);
  log.measured = true;
  tracing.set_capture(traced);
  RunTcpClients(*cluster, shape, seed + 1, shape.measured_ops, logic, &log);
  tracing.set_capture(false);
  read(&rep.end);
  reference.Run(kTcpReferenceIterations);
  rep.ref_seconds_per_iter =
      reference.cpu_seconds() / static_cast<double>(reference.iterations());

  const double deadline = WallSeconds() + 20.0;
  while (UncertainItems(*cluster) > 0 && WallSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (UncertainItems(*cluster) != 0) {
    rep.errors.push_back("items still uncertain after quiescing");
  }
  CheckBalance(*cluster, shape, &rep);
  CheckLocksFree(*cluster, &rep);
  cluster.reset();  // stop every site before the transport goes away
  if (traced) {
    rep.trace = sink.Take(&rep.trace_wall);
    rep.spans = spans.Take();
    rep.payloads = tracing.payloads();
  }
  return rep;
}

// ---- one repetition of any workload ----------------------------------------

SimCluster::Options SimOptions(const Shape& shape, uint64_t seed,
                               const std::string& wal_dir, TraceSink* sink) {
  SimCluster::Options options;
  options.site_count = shape.sites;
  options.seed = seed;
  options.engine.leg = shape.leg;
  options.min_delay = 0.001;
  options.max_delay = 0.003;
  options.trace = sink;
  if (shape.vote_timeout > 0) {
    options.engine.prepare_timeout = shape.vote_timeout;
    options.engine.ready_timeout = shape.vote_timeout;
  }
  if (shape.wait_timeout > 0) {
    options.engine.wait_timeout = shape.wait_timeout;
  }
  if (shape.wal) {
    options.wal_dir = wal_dir;  // default sync policy: kFlushOnly
  }
  return options;
}

Rep RunRep(const Shape& shape, uint64_t seed, const std::string& work_dir,
           bool traced) {
  const std::string wal_dir = shape.wal ? work_dir + "/wal" : "";
  if (!wal_dir.empty()) {
    ClearDir(wal_dir);
  }
  if (shape.tcp) {
    return RunTcpRep(shape, seed, wal_dir, traced);
  }
  const double setup_start = WallSeconds();
  if (!traced) {
    SimCluster cluster(SimOptions(shape, seed, wal_dir, nullptr));
    return RunSimRep(cluster, shape, seed, wal_dir, setup_start, nullptr,
                     nullptr, nullptr);
  }
  RecordingTraceSink sink;
  TracedSimCluster cluster(SimOptions(shape, seed, wal_dir, &sink));
  LogicProbe probe;
  probe.spans = &cluster.spans();
  Rep rep = RunSimRep(cluster, shape, seed, wal_dir, setup_start, &sink,
                      &probe, &cluster.tracing());
  rep.traced = true;
  rep.trace = sink.Take(&rep.trace_wall);
  rep.spans = cluster.spans().Take();
  rep.payloads = cluster.tracing().payloads();
  return rep;
}

// ---- aggregation -------------------------------------------------------------

// True when two repetitions of a simulated workload ran the same
// schedule: every attempt with the same id, virtual times and outcome,
// and the same message and event counts.
bool SameSchedule(const Rep& a, const Rep& b) {
  if (a.attempts.size() != b.attempts.size() || a.window() != b.window() ||
      a.end.sends - a.begin.sends != b.end.sends - b.begin.sends ||
      a.end.sim_events - a.begin.sim_events !=
          b.end.sim_events - b.begin.sim_events) {
    return false;
  }
  for (size_t i = 0; i < a.attempts.size(); ++i) {
    const Attempt& x = a.attempts[i];
    const Attempt& y = b.attempts[i];
    if (x.txn != y.txn || x.start != y.start || x.end != y.end ||
        x.committed != y.committed || x.certain != y.certain) {
      return false;
    }
  }
  return true;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct ClientFigures {
  double tput = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double commit_frac = 0;
  double certain_frac = 0;
  size_t samples = 0;
};

ClientFigures Figures(const Rep& rep) {
  ClientFigures f;
  const std::vector<double> lat = rep.LatenciesMs();
  uint64_t certain = 0;
  for (const Attempt& a : rep.attempts) {
    certain += a.committed && a.certain ? 1 : 0;
  }
  const double commits = static_cast<double>(rep.commits());
  f.tput = Ratio(commits, rep.window());
  f.p50_ms = Percentile(lat, 0.50);
  f.p99_ms = Percentile(lat, 0.99);
  f.commit_frac = Ratio(commits, static_cast<double>(rep.attempts.size()));
  f.certain_frac = Ratio(static_cast<double>(certain), commits);
  f.samples = lat.size();
  return f;
}

// Runs repetitions until the time budget would be exceeded by one more,
// but at least `min_reps`. In trace mode the second repetition is traced
// and the others are not: a traced repetition holds its trace, spans and
// payloads (about 400 MiB on sim_paxos_hot) until it is analysed.
std::vector<Rep> RunReps(const Shape& shape, const Args& args, bool trace,
                         size_t min_reps) {
  std::vector<Rep> reps;
  const double start = WallSeconds();
  double longest = 0;
  while (reps.size() < min_reps ||
         (reps.size() < 64 &&
          WallSeconds() - start + longest <= args.seconds)) {
    const double rep_start = WallSeconds();
    const bool traced = trace && reps.size() == 1;
    reps.push_back(RunRep(shape, args.seed, args.work_dir, traced));
    reps.back().peak_rss_mb = PeakRssMb();
    longest = std::max(longest, WallSeconds() - rep_start);
  }
  return reps;
}

void AddErrors(const std::vector<Rep>& reps, Report* report) {
  std::set<std::string> seen;
  for (const Rep& rep : reps) {
    for (const std::string& e : rep.errors) {
      if (seen.insert(e).second) {
        report->Fail(e);
      }
    }
  }
}

void CheckDeterminism(const Shape& shape, const std::vector<const Rep*>& reps,
                      Report* report) {
  if (shape.tcp) {
    return;
  }
  for (size_t i = 1; i < reps.size(); ++i) {
    if (!SameSchedule(*reps[0], *reps[i])) {
      report->Fail("simulated repetitions with one seed diverged");
      return;
    }
  }
}

void EndToEnd(const Shape& shape, const Args& args, Report* report) {
  const std::vector<Rep> reps = RunReps(shape, args, false, 3);
  AddErrors(reps, report);
  std::vector<const Rep*> all;
  for (const Rep& rep : reps) {
    all.push_back(&rep);
    report->attempted += rep.ops;
    report->failed += rep.ops_failed;
  }
  CheckDeterminism(shape, all, report);
  std::vector<ClientFigures> figures;
  for (const Rep& rep : reps) {
    figures.push_back(Figures(rep));
    const ClientFigures& r = figures.back();
    char line[200];
    std::snprintf(line, sizeof(line),
                  "tput=%.1f p50_ms=%.4f p99_ms=%.4f cpu_us=%.2f "
                  "cpu_ref=%.2f ref_ns=%.1f setup_s=%.4f",
                  r.tput, r.p50_ms, r.p99_ms, rep.CpuPerCommitUs(),
                  rep.CpuRefPerCommit(), rep.ref_seconds_per_iter * 1e9,
                  rep.setup_seconds);
    report->reps.push_back(line);
  }
  // Simulated repetitions are identical on the virtual clock, so their
  // client figures come from the first; wall-clock runs take medians.
  ClientFigures f = figures[0];
  size_t samples = f.samples;
  if (shape.tcp) {
    auto median = [&](double ClientFigures::*field) {
      std::vector<double> values;
      for (const ClientFigures& r : figures) {
        values.push_back(r.*field);
      }
      return Median(values);
    };
    f.tput = median(&ClientFigures::tput);
    f.p50_ms = median(&ClientFigures::p50_ms);
    f.p99_ms = median(&ClientFigures::p99_ms);
    f.commit_frac = median(&ClientFigures::commit_frac);
    f.certain_frac = median(&ClientFigures::certain_frac);
    samples = 0;
    for (const ClientFigures& r : figures) {
      samples += r.samples;
    }
  }
  if (SamplesBeyond(f.samples, 0.99) < 10) {
    report->Fail("too few committed samples for a p99");
  }
  const uint64_t n = reps.size();
  report->Add("commit_tput", f.tput, "txn/s", shape.tcp ? n : 1);
  report->Add("commit_p50_ms", f.p50_ms, "ms", samples);
  report->Add("commit_p99_ms", f.p99_ms, "ms", samples);
  report->Add("commit_frac", f.commit_frac, "ratio", shape.tcp ? n : 1);
  report->Add("certain_out_frac", f.certain_frac, "ratio", shape.tcp ? n : 1);
  std::vector<double> cpu_ref;
  std::vector<double> setups;
  for (const Rep& rep : reps) {
    cpu_ref.push_back(rep.CpuRefPerCommit());
    setups.push_back(rep.setup_seconds);
  }
  // CPU figures take the cheapest repetition: contention from other
  // tenants only ever slows a repetition down (see README.md).
  report->Add("cpu_ref_per_commit",
              *std::min_element(cpu_ref.begin(), cpu_ref.end()), "ref_iter", n);
  report->Add("setup_s", *std::min_element(setups.begin(), setups.end()), "s",
              n);
  // Later repetitions reuse a fragmented heap, so the peak of the first
  // one is the process that ran this workload once.
  report->Add("peak_rss_mb", reps[0].peak_rss_mb, "MiB", 1);
}

// Coordinator-side protocol milestones of one transaction, rebuilt from
// the trace (run clock).
struct Milestones {
  uint64_t coordinator = 0;
  double prepared = -1;  // last prepare vote collected before shipping
  double shipped = -1;   // writes shipped
  double decided = -1;   // first decision at the coordinator
  double prepared_wall = -1;
  double shipped_wall = -1;
  double decided_wall = -1;
};

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<double>& self,
                const std::set<uint64_t>& txns) {
  std::ofstream out(path);
  out << "index\tname\ttxn\tparent\twall_start_s\twall_end_s\tvirt_start_s"
         "\tvirt_end_s\tself_wall_us\n";
  char line[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (txns.count(s.txn) == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "%zu\t%s\t%llu\t%lld\t%.9f\t%.9f\t%.9f\t%.9f\t%.3f\n", i,
                  SpanKindName(s.kind), static_cast<unsigned long long>(s.txn),
                  static_cast<long long>(s.parent), s.wall_start, s.wall_end,
                  s.virt_start, s.virt_end, self[i] * 1e6);
    out << line;
  }
}

// Audits the protocol events of a whole traced repetition.
void AuditTrace(const Rep& t, Report* report) {
  const std::vector<AuditViolation> violations = TraceAuditor().Audit(t.trace);
  for (size_t i = 0; i < violations.size() && i < 3; ++i) {
    report->Fail("trace audit: " + violations[i].ToString());
  }
}

// Decodes every observed payload and labels message spans with the
// transaction their payload belongs to.
void LabelMessageSpans(const Rep& t, std::vector<Span>* spans,
                       Report* report) {
  std::vector<uint64_t> txn_of_payload;
  for (const std::string& payload : t.payloads) {
    Result<Message> m = Message::Decode(payload);
    if (!m.ok()) {
      report->Fail("observed payload failed to decode");
      break;
    }
    txn_of_payload.push_back(m.value().txn.value());
  }
  for (Span& s : *spans) {
    if (s.payload >= 0 &&
        static_cast<size_t>(s.payload) < txn_of_payload.size()) {
      s.txn = txn_of_payload[static_cast<size_t>(s.payload)];
    }
  }
}

std::unordered_map<uint64_t, Milestones> CoordinatorMilestones(const Rep& t,
                                                               bool tcp) {
  std::unordered_map<uint64_t, Milestones> milestones;
  for (size_t i = 0; i < t.trace.size(); ++i) {
    const TraceEvent& ev = t.trace[i];
    const double wall = t.trace_wall[i];
    const double when = tcp ? wall : ev.time;
    Milestones& m = milestones[ev.txn.value()];
    const bool at_coordinator = m.coordinator == ev.site.value();
    switch (ev.type) {
      case TraceEventType::kSubmit:
        m.coordinator = ev.site.value();
        break;
      case TraceEventType::kVoteCollected:
        if (at_coordinator && m.shipped < 0) {
          m.prepared = when;
          m.prepared_wall = wall;
        }
        break;
      case TraceEventType::kWriteShipped:
        if (at_coordinator) {
          m.shipped = when;
          m.shipped_wall = wall;
        }
        break;
      case TraceEventType::kDecisionCommit:
      case TraceEventType::kDecisionAbort:
        if (at_coordinator && m.decided < 0) {
          m.decided = when;
          m.decided_wall = wall;
        }
        break;
      default:
        break;
    }
  }
  return milestones;
}

struct PhaseStats {
  std::vector<double> prepare_ms;
  std::vector<double> vote_ms;
  std::set<uint64_t> sampled;  // transactions whose spans are written out
};

// Appends a client span and its four critical-path phase spans for every
// committed attempt. On the simulator the phases must tile the client
// latency exactly (virtual clock); `exact` enforces that.
PhaseStats AddClientSpans(const Rep& t, bool exact,
                          const std::unordered_map<uint64_t, Milestones>& ms,
                          std::vector<Span>* spans, Report* report) {
  PhaseStats stats;
  size_t mismatches = 0;
  for (const Attempt& a : t.attempts) {
    if (!a.committed) {
      continue;
    }
    auto it = ms.find(a.txn);
    if (it == ms.end() || it->second.decided < 0) {
      ++mismatches;
      continue;
    }
    const Milestones& m = it->second;
    const double shipped = m.shipped >= 0 ? m.shipped : m.decided;
    const double prepared = m.prepared >= 0 ? m.prepared : shipped;
    const double wall_shipped =
        m.shipped >= 0 ? m.shipped_wall : m.decided_wall;
    const double wall_prepared =
        m.prepared >= 0 ? m.prepared_wall : wall_shipped;
    const double bounds[5] = {a.start, prepared, shipped, m.decided, a.end};
    const double walls[5] = {a.wall_start, wall_prepared, wall_shipped,
                             m.decided_wall, a.wall_end};
    stats.prepare_ms.push_back((prepared - a.start) * 1e3);
    stats.vote_ms.push_back((m.decided - shipped) * 1e3);
    double sum = 0;
    for (int p = 0; p < 4; ++p) {
      sum += bounds[p + 1] - bounds[p];
      mismatches += exact && bounds[p + 1] < bounds[p] ? 1 : 0;
    }
    mismatches += exact && std::fabs(sum - (a.end - a.start)) > 1e-9 ? 1 : 0;

    Span client;
    client.kind = SpanKind::kClient;
    client.txn = a.txn;
    client.wall_start = a.wall_start;
    client.wall_end = a.wall_end;
    client.virt_start = a.start;
    client.virt_end = a.end;
    spans->push_back(client);
    const int64_t parent = static_cast<int64_t>(spans->size()) - 1;
    const SpanKind kinds[4] = {SpanKind::kPhasePrepare, SpanKind::kPhaseExecute,
                               SpanKind::kPhaseVote, SpanKind::kPhaseReply};
    for (int p = 0; p < 4; ++p) {
      Span phase;
      phase.kind = kinds[p];
      phase.txn = a.txn;
      phase.parent = parent;
      phase.virt_start = bounds[p];
      phase.virt_end = bounds[p + 1];
      phase.wall_start = walls[p];
      phase.wall_end = walls[p + 1];
      spans->push_back(phase);
    }
    if (stats.sampled.size() < 200) {
      stats.sampled.insert(a.txn);
    }
  }
  if (exact && mismatches != 0) {
    report->Fail("phase spans do not add up to client latency for " +
                 std::to_string(mismatches) + " transactions");
  }
  return stats;
}

struct CodecTimes {
  double decode_ns = 0;  // per message
  double encode_ns = 0;
  bool ok = true;
};

// Re-decodes and re-encodes every payload with the public codec, a chunk
// at a time so that only one chunk of decoded messages is alive at once,
// repeating whole passes until at least 50 ms have been timed.
CodecTimes ReplayCodec(const std::vector<std::string>& payloads) {
  constexpr size_t kChunk = 4096;
  CodecTimes out;
  if (payloads.empty()) {
    return out;
  }
  double decode_s = 0;
  double encode_s = 0;
  size_t items = 0;
  std::vector<Message> chunk;
  chunk.reserve(kChunk);
  do {
    for (size_t begin = 0; begin < payloads.size(); begin += kChunk) {
      const size_t end = std::min(payloads.size(), begin + kChunk);
      chunk.clear();
      const double t0 = WallSeconds();
      for (size_t i = begin; i < end; ++i) {
        Result<Message> m = Message::Decode(payloads[i]);
        if (!m.ok()) {
          out.ok = false;
          return out;
        }
        chunk.push_back(std::move(m.value()));
      }
      const double t1 = WallSeconds();
      size_t bytes = 0;
      for (const Message& m : chunk) {
        bytes += m.Encode().size();
      }
      encode_s += WallSeconds() - t1;
      decode_s += t1 - t0;
      out.ok = out.ok && bytes > 0;
    }
    items += payloads.size();
  } while (decode_s + encode_s < 0.05);
  out.decode_ns = decode_s * 1e9 / static_cast<double>(items);
  out.encode_ns = encode_s * 1e9 / static_cast<double>(items);
  return out;
}

struct PolyStats {
  std::vector<double> uncertain_ms;  // install -> reduce, per item
  std::vector<double> alts;          // alternatives per polytransaction
  double p_mean = 0;                 // time-weighted over the window
  int64_t p_max = 0;
};

// Polyvalue lifetimes and P(t), rebuilt from install/reduce events.
PolyStats PolyFromTrace(const Rep& t, bool tcp, Report* report) {
  PolyStats stats;
  std::map<std::pair<uint64_t, std::string>, double> open_install;
  int64_t p = static_cast<int64_t>(t.begin.uncertain);
  stats.p_max = p;
  double area = 0;
  double last = t.begin.clock;
  int64_t net = 0;  // installs - reduces over the whole trace
  for (size_t i = 0; i < t.trace.size(); ++i) {
    const TraceEvent& ev = t.trace[i];
    const double when = tcp ? t.trace_wall[i] : ev.time;
    const bool in_window = i >= t.begin.trace_events && i < t.end.trace_events;
    const auto key = std::make_pair(ev.site.value(), ev.key);
    if (ev.type == TraceEventType::kPolyInstall) {
      ++net;
      open_install.emplace(key, when);
    } else if (ev.type == TraceEventType::kPolyReduce) {
      --net;
      auto it = open_install.find(key);
      if (it != open_install.end()) {
        stats.uncertain_ms.push_back((when - it->second) * 1e3);
        open_install.erase(it);
      }
    } else if (ev.type == TraceEventType::kAlternativeFork && in_window) {
      stats.alts.push_back(static_cast<double>(ev.arg));
    }
    if (in_window && (ev.type == TraceEventType::kPolyInstall ||
                      ev.type == TraceEventType::kPolyReduce)) {
      const double at = std::clamp(when, last, t.end.clock);
      area += static_cast<double>(p) * (at - last);
      last = at;
      p += ev.type == TraceEventType::kPolyInstall ? 1 : -1;
      stats.p_max = std::max(stats.p_max, p);
    }
  }
  area += static_cast<double>(p) * std::max(0.0, t.end.clock - last);
  stats.p_mean = Ratio(area, t.window());
  if (net != 0) {
    report->Fail("trace install/reduce events do not balance after quiescing");
  }
  return stats;
}

void PerLayer(const Shape& shape, const Args& args, Report* report) {
  std::vector<Rep> reps = RunReps(shape, args, true, 4);
  AddErrors(reps, report);
  std::vector<const Rep*> all;
  std::vector<const Rep*> plain;
  for (const Rep& rep : reps) {
    all.push_back(&rep);
    if (!rep.traced) {
      plain.push_back(&rep);
    }
    report->attempted += rep.ops;
    report->failed += rep.ops_failed;
  }
  // Tracing must not change a simulated schedule.
  CheckDeterminism(shape, all, report);
  Rep& t = reps[1];
  const Rep& u = reps[0];
  const EngineMetrics& e0 = t.begin.engine;
  const EngineMetrics& e1 = t.end.engine;
  const double commits = static_cast<double>(t.commits());
  auto per_commit = [&](double x) { return Ratio(x, commits); };
  auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  const uint64_t n = t.commits();

  AuditTrace(t, report);
  // Spans: the decorator's and the logic probe's, then client and phase
  // spans rebuilt from the callbacks and the trace.
  std::vector<Span> spans = std::move(t.spans);
  LabelMessageSpans(t, &spans, report);
  const PhaseStats phases = AddClientSpans(
      t, !shape.tcp, CoordinatorMilestones(t, shape.tcp), &spans, report);

  // Span statistics over the measured window (wall clock).
  const std::vector<double> self = SelfTimes(spans);
  std::vector<double> send_us, handoff_us, handler_us, handler_self_us;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.wall_start < t.begin.wall || s.wall_start > t.end.wall) {
      continue;
    }
    switch (s.kind) {
      case SpanKind::kSend:
        send_us.push_back(s.wall() * 1e6);
        break;
      case SpanKind::kHandoff:
        handoff_us.push_back(s.virt() * 1e6);
        break;
      case SpanKind::kHandler:
        handler_us.push_back(s.wall() * 1e6);
        handler_self_us.push_back(self[i] * 1e6);
        break;
      default:
        break;
    }
  }
  if (!args.spans_out.empty()) {
    WriteSpans(args.spans_out, spans, self, phases.sampled);
  }

  const CodecTimes codec = ReplayCodec(t.payloads);
  if (!codec.ok) {
    report->Fail("codec replay failed");
  }

  const PolyStats poly = PolyFromTrace(t, shape.tcp, report);
  const std::vector<double>& alts = poly.alts;
  const std::vector<double>& uncertain_ms = poly.uncertain_ms;
  const std::vector<double>& prepare_ms = phases.prepare_ms;
  const std::vector<double>& vote_ms = phases.vote_ms;

  const double installs = delta(e0.polyvalue_installs, e1.polyvalue_installs);
  report->Add("net.msgs_per_commit", per_commit(delta(t.begin.sends, t.end.sends)),
              "count", n);
  report->Add("net.bytes_per_commit",
              per_commit(delta(t.begin.bytes, t.end.bytes)), "bytes", n);
  report->Add("net.send_us", Mean(send_us), "us", send_us.size());
  report->Add("net.handoff_us", Percentile(handoff_us, 0.5), "us",
              handoff_us.size());
  report->Add("codec.encode_ns", codec.encode_ns, "ns", t.payloads.size());
  report->Add("codec.decode_ns", codec.decode_ns, "ns", t.payloads.size());
  report->Add("txn.handler_us", Mean(handler_us), "us", handler_us.size());
  report->Add("txn.handler_self_us", Mean(handler_self_us), "us",
              handler_self_us.size());
  report->Add("txn.prepare_ms", Percentile(prepare_ms, 0.5), "ms",
              prepare_ms.size());
  report->Add("txn.vote_ms", Percentile(vote_ms, 0.5), "ms", vote_ms.size());
  const double compute_n =
      delta(e0.compute_phase_count, e1.compute_phase_count);
  const double wait_n = delta(e0.wait_phase_count, e1.wait_phase_count);
  report->Add("txn.compute_phase_ms",
              Ratio(e1.compute_phase_seconds - e0.compute_phase_seconds,
                    compute_n) * 1e3,
              "ms", static_cast<uint64_t>(compute_n));
  report->Add("txn.wait_phase_ms",
              Ratio(e1.wait_phase_seconds - e0.wait_phase_seconds, wait_n) *
                  1e3,
              "ms", static_cast<uint64_t>(wait_n));
  report->Add("txn.wait_phase_max_ms", e1.wait_phase_max * 1e3, "ms",
              static_cast<uint64_t>(wait_n));
  report->Add("txn.abort_conflict_frac",
              Ratio(static_cast<double>(t.conflict_aborts),
                    static_cast<double>(t.aborts)),
              "ratio", t.aborts);
  report->Add("txn.lock_waits_per_commit",
              per_commit(delta(e0.lock_waits, e1.lock_waits)), "count", n);
  report->Add("sim.events_per_commit",
              per_commit(delta(t.begin.sim_events, t.end.sim_events)), "count",
              n);
  report->Add("poly.polytxn_frac",
              Ratio(delta(e0.polytxns, e1.polytxns),
                    delta(e0.txns_submitted, e1.txns_submitted)),
              "ratio", static_cast<uint64_t>(delta(e0.txns_submitted,
                                                   e1.txns_submitted)));
  report->Add("poly.alts_per_polytxn_mean", Mean(alts), "count", alts.size());
  report->Add("poly.alts_per_polytxn_max",
              alts.empty() ? 0.0 : *std::max_element(alts.begin(), alts.end()),
              "count", alts.size());
  report->Add("poly.logic_calls_per_commit",
              per_commit(delta(t.begin.logic_calls, t.end.logic_calls)),
              "count", n);
  report->Add("poly.logic_us",
              per_commit(delta(t.begin.logic_nanos, t.end.logic_nanos)) / 1e3,
              "us", n);
  report->Add("poly.installs_per_commit", per_commit(installs), "count", n);
  report->Add("poly.resolved_frac",
              Ratio(static_cast<double>(e1.polyvalues_resolved),
                    static_cast<double>(e1.polyvalue_installs)),
              "ratio", e1.polyvalue_installs);
  report->Add("poly.P_mean", poly.p_mean, "count", n);
  report->Add("poly.P_max", static_cast<double>(poly.p_max), "count", n);
  report->Add("poly.uncertain_ms_p50", Percentile(uncertain_ms, 0.5), "ms",
              uncertain_ms.size());
  report->Add("poly.uncertain_ms_p99", Percentile(uncertain_ms, 0.99), "ms",
              uncertain_ms.size());
  report->Add("store.wal_records_per_commit",
              per_commit(delta(t.begin.wal_records, t.end.wal_records)),
              "count", n);
  report->Add("store.wal_batches_per_commit",
              per_commit(delta(t.begin.wal_batches, t.end.wal_batches)),
              "count", n);
  report->Add("store.wal_bytes_per_commit",
              per_commit(delta(t.begin.wal_bytes, t.end.wal_bytes)), "bytes",
              n);
  report->Add("paxos.accepts_per_commit",
              per_commit(delta(e0.paxos_accepts, e1.paxos_accepts)), "count",
              n);
  report->Add("paxos.failovers", delta(e0.paxos_failovers, e1.paxos_failovers),
              "count", n);
  report->Add("mem.retained_kb_per_txn",
              Ratio((u.end.rss_mb - u.begin.rss_mb) * 1024.0,
                    static_cast<double>(u.attempts.size())),
              "KiB", u.attempts.size());
  report->Add("obs.trace_events_per_commit",
              per_commit(delta(t.begin.trace_events, t.end.trace_events)),
              "count", n);
  std::vector<double> plain_us;
  std::vector<double> plain_ref;
  for (const Rep* r : plain) {
    plain_us.push_back(r->CpuPerCommitUs());
    plain_ref.push_back(r->CpuRefPerCommit());
  }
  // Raw CPU time tracks the host's speed (see README.md); the cheapest
  // untraced repetition is the least disturbed one.
  report->Add("cpu_us_per_commit",
              *std::min_element(plain_us.begin(), plain_us.end()), "us",
              plain_us.size());
  // Both sides in reference-loop units, so the host's speed cancels.
  report->Add("obs.trace_overhead_frac",
              Ratio(t.CpuRefPerCommit(), Median(plain_ref)) - 1.0, "ratio",
              plain_ref.size() + 1);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"tcp_wal_2pc", "sim_lossy_poly", "sim_paxos_hot"};
}

Report RunBenchmark(const Args& args) {
  Report report;
  const Shape shape = ShapeFor(args.workload);
  if (shape.name.empty()) {
    report.Fail("unknown workload '" + args.workload + "'");
    return report;
  }
  report.env.emplace_back("runtime", shape.tcp ? "thread+tcp" : "sim");
  report.env.emplace_back("wal_sync_policy", shape.wal ? "flush_only" : "none");
  report.env.emplace_back("protocol", ProtocolLegName(shape.leg));
  report.env.emplace_back("clients", std::to_string(shape.clients));
  report.env.emplace_back("sites", std::to_string(shape.sites));
  report.env.emplace_back("measured_ops_per_rep",
                          std::to_string(shape.measured_ops));
  if (args.trace) {
    PerLayer(shape, args, &report);
  } else {
    EndToEnd(shape, args, &report);
  }
  return report;
}

}  // namespace perfbench

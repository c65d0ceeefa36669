// Engine throughput: how many transactions per second of real CPU time
// the stack sustains, on the deterministic runtime (protocol cost alone,
// no network), the threaded in-memory runtime (with real
// synchronisation), TCP loopback, and with a durable WAL. Not a paper
// figure — a regression baseline for the implementation itself.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/net/tcp_transport.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

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

// `trace` exercises the instrumented path (null = the zero-cost default);
// `registry` receives the cluster's end-of-run metrics when non-null.
double SimThroughput(size_t sites, int txns, TraceSink* trace = nullptr,
                     MetricsRegistry* registry = nullptr) {
  SimCluster::Options options;
  options.site_count = sites;
  options.min_delay = 0.0005;
  options.max_delay = 0.0005;
  options.trace = trace;
  SimCluster cluster(options);
  for (size_t s = 0; s < sites; ++s) {
    cluster.Load(s, "k" + std::to_string(s), Value::Int(0));
  }
  const auto start = std::chrono::steady_clock::now();
  int committed = 0;
  for (int i = 0; i < txns; ++i) {
    const size_t target = i % sites;
    const auto result = cluster.SubmitAndRun(
        (target + 1) % sites,
        Bump("k" + std::to_string(target), cluster.site_id(target)));
    if (result.has_value() && result->committed()) {
      ++committed;
    }
    cluster.RunFor(0.01);
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (registry != nullptr) {
    cluster.ExportMetrics(registry);
  }
  return committed / elapsed;
}

// One threaded run's setup.
struct ThreadedConfig {
  // Empty: no WAL at all (the historical bench rows). Otherwise each site
  // logs to <wal_dir>/site<i>.wal with the policy below.
  std::string wal_dir;
  Wal::SyncPolicy sync_policy = Wal::SyncPolicy::kEveryAppend;
  // Run over TCP loopback instead of the in-memory transport.
  bool tcp = false;
  size_t clients = 4;
};

double ThreadedThroughput(size_t sites, int txns,
                          const ThreadedConfig& config = {}) {
  ThreadCluster::Options options;
  options.site_count = sites;
  options.engine.prepare_timeout = 2.0;
  options.engine.ready_timeout = 2.0;
  if (!config.wal_dir.empty()) {
    options.wal_dir = config.wal_dir;
    options.wal.sync_policy = config.sync_policy;
  }
  std::unique_ptr<TcpTransport> tcp;
  if (config.tcp) {
    tcp = std::make_unique<TcpTransport>();
    options.transport = tcp.get();
  }
  ThreadCluster cluster(options);
  const size_t client_count = config.clients;
  for (size_t c = 0; c < client_count; ++c) {
    const size_t target = c % sites;
    cluster.Load(target,
                 "k" + std::to_string(target) + "/" + std::to_string(c),
                 Value::Int(0));
  }
  const auto start = std::chrono::steady_clock::now();
  std::atomic<int> committed{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < client_count; ++c) {
    clients.emplace_back([&, c] {
      for (int i = static_cast<int>(c); i < txns;
           i += static_cast<int>(client_count)) {
        // Each client owns a disjoint item: no conflicts, pure pipeline.
        const size_t target = c % sites;
        const auto result = cluster.SubmitAndWait(
            (target + 1) % sites,
            Bump("k" + std::to_string(target) + "/" + std::to_string(c),
                 cluster.site_id(target)));
        if (result.has_value() && result->committed()) {
          ++committed;
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return committed / elapsed;
}

// Median of three short runs: one run on a shared machine can be off by
// a fifth either way.
double MedianOfThree(size_t sites, int txns, const ThreadedConfig& config) {
  double runs[3];
  for (double& run : runs) {
    run = ThreadedThroughput(sites, txns, config);
  }
  std::sort(runs, runs + 3);
  return runs[1];
}

// Fresh WAL directory per matrix cell so no run replays another's log.
std::string FreshWalDir(const char* name) {
  const std::string dir = std::string("/tmp/polyv_bench_") + name;
  mkdir(dir.c_str(), 0755);
  for (int i = 0; i < 8; ++i) {
    std::remove((dir + "/site" + std::to_string(i) + ".wal").c_str());
  }
  return dir;
}

}  // namespace
}  // namespace polyvalue

int main() {
  using namespace polyvalue;
  std::printf("Engine throughput (committed txns per CPU-second)\n\n");
  std::printf("%-34s %12s\n", "configuration", "txns/s");
  std::printf("%.*s\n", 48, "------------------------------------------------");
  MetricsRegistry registry;
  const double sim2 = SimThroughput(2, 2000, nullptr, &registry);
  const double sim4 = SimThroughput(4, 2000);
  std::printf("%-34s %12.0f\n", "sim runtime, 2 sites, sequential", sim2);
  std::printf("%-34s %12.0f\n", "sim runtime, 4 sites, sequential", sim4);
  // Same workload with a sink attached: the gap between this row and the
  // untraced one above is the full cost of tracing; the untraced row
  // itself only pays a null-pointer test per would-be event.
  CountingTraceSink counting;
  const double sim2_traced = SimThroughput(2, 2000, &counting);
  std::printf("%-34s %12.0f\n", "sim runtime, 2 sites, traced sink",
              sim2_traced);
  const double thr2 = ThreadedThroughput(2, 400);
  const double thr4 = ThreadedThroughput(4, 400);
  std::printf("%-34s %12.0f\n", "threaded mem runtime, 2 sites x4 cli", thr2);
  std::printf("%-34s %12.0f\n", "threaded mem runtime, 4 sites x4 cli", thr4);
  std::printf("\n(threaded numbers include real thread handoffs per "
              "message; the mem transport\ndelivers through per-site "
              "dispatcher threads.)\n");

  // TCP loopback, no WAL: each site's I/O thread writes everything its
  // engine queued for a peer during one pass with one syscall, so the
  // wider the client fan-in, the more each write carries.
  std::printf("\nTCP loopback runtime, 2 sites, no WAL "
              "(median of 3 runs)\n\n");
  std::printf("%-34s %12s\n", "configuration", "txns/s");
  std::printf("%.*s\n", 48, "------------------------------------------------");
  ThreadedConfig tcp_cell;
  tcp_cell.tcp = true;
  tcp_cell.clients = 2;
  const double tcp_2cli = MedianOfThree(2, 6000, tcp_cell);
  std::printf("%-34s %12.0f\n", "tcp, 2 clients", tcp_2cli);
  tcp_cell.clients = 32;
  const double tcp_32cli = MedianOfThree(2, 16000, tcp_cell);
  std::printf("%-34s %12.0f\n", "tcp, 32 clients", tcp_32cli);

  // Durability matrix: same threaded workload, durable WAL on every
  // site. The fsync-per-record row is the baseline group commit must
  // beat.
  std::printf("\nDurable threaded runtime, 2 sites x16 cli\n\n");
  std::printf("%-34s %12s\n", "configuration", "txns/s");
  std::printf("%.*s\n", 48, "------------------------------------------------");
  const int kDurableTxns = 480;
  ThreadedConfig cell;
  cell.clients = 16;
  cell.sync_policy = Wal::SyncPolicy::kEveryAppend;
  cell.wal_dir = FreshWalDir("sync_plain");
  const double dur_sync_plain = ThreadedThroughput(2, kDurableTxns, cell);
  std::printf("%-34s %12.0f\n", "fsync/record", dur_sync_plain);
  cell.sync_policy = Wal::SyncPolicy::kGroupCommit;
  cell.wal_dir = FreshWalDir("group_plain");
  const double dur_group_plain = ThreadedThroughput(2, kDurableTxns, cell);
  std::printf("%-34s %12.0f\n", "group commit", dur_group_plain);
  std::printf("\ngroup commit vs fsync/record: %.2fx\n",
              dur_group_plain / dur_sync_plain);
  std::printf("\ntracing: %llu events through the sink; traced/untraced "
              "throughput ratio %.2f\n",
              static_cast<unsigned long long>(counting.count()),
              sim2_traced / sim2);

  registry.Gauge("bench.sim_2site_txns_per_sec", sim2);
  registry.Gauge("bench.sim_4site_txns_per_sec", sim4);
  registry.Gauge("bench.sim_2site_traced_txns_per_sec", sim2_traced);
  registry.Gauge("bench.threaded_2site_txns_per_sec", thr2);
  registry.Gauge("bench.threaded_4site_txns_per_sec", thr4);
  registry.Gauge("bench.tcp_2site_2cli_txns_per_sec", tcp_2cli);
  registry.Gauge("bench.tcp_2site_32cli_txns_per_sec", tcp_32cli);
  registry.Gauge("bench.durable_sync_plain_txns_per_sec", dur_sync_plain);
  registry.Gauge("bench.durable_group_plain_txns_per_sec", dur_group_plain);
  registry.SetCounter("bench.trace_events_emitted", counting.count());
  if (const char* path = std::getenv("POLYV_METRICS_JSON")) {
    const Status status = registry.WriteJsonFile(path);
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write metrics JSON to %s: %s\n", path,
                   status.message().c_str());
      return 1;
    }
    std::printf("metrics JSON written to %s\n", path);
  }
  return 0;
}

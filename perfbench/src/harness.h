// Measurement helpers for the repo benchmark: percentiles, process
// clocks, an in-memory span recorder with self-time accounting, and the
// Transport decorator that times sends, hand-offs and delivery handlers
// from outside the engine.
//
// Everything here sits on public hooks only (the Transport interface and
// the TraceSink interface); nothing in src/ knows it is being measured.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/transport.h"
#include "src/obs/trace.h"

namespace perfbench {

// ---- statistics ----------------------------------------------------------

// Nearest-rank percentile: the smallest sample with at least q * n
// samples at or below it. q in (0, 1]; an empty input gives 0.
double Percentile(std::vector<double> values, double q);

// Samples strictly above the nearest-rank q-percentile of n samples,
// counted by rank: n - ceil(q * n). A p99 is reportable when this is at
// least 10.
size_t SamplesBeyond(size_t n, double q);

// Median of the values (the mean of the two middle ones for even n).
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

// ---- clocks and memory ---------------------------------------------------

double WallSeconds();        // steady clock
double ProcessCpuSeconds();  // user + sys of every thread of the process
double CurrentRssMb();       // resident set right now (/proc/self/statm)
double PeakRssMb();          // ru_maxrss of this process

// A fixed reference loop, run in slices between the workload's own steps:
// string-keyed ordered and hashed maps, small allocations and
// std::function calls, the kind of work the engine does per message. Its
// cost per iteration is fixed by this code, so it measures how fast the
// host runs during the slices; workload CPU divided by it is a CPU cost
// from which the host's speed cancels.
class ReferenceLoop {
 public:
  ReferenceLoop();
  void Run(int iterations);  // adds to cpu_seconds() and iterations()
  double cpu_seconds() const { return cpu_seconds_; }
  uint64_t iterations() const { return iterations_; }

 private:
  std::map<std::string, int64_t> ordered_;
  std::unordered_map<uint64_t, std::string> hashed_;
  std::vector<std::function<int64_t(int64_t)>> fns_;
  uint64_t x_ = 88172645463325252ull;
  int64_t acc_ = 0;
  double cpu_seconds_ = 0;
  uint64_t iterations_ = 0;
};

// ---- spans ----------------------------------------------------------------

enum class SpanKind : uint8_t {
  kClient,        // client submit -> callback
  kPhasePrepare,  // coordinator: submit -> last prepare vote
  kPhaseExecute,  // coordinator: last prepare vote -> writes shipped
  kPhaseVote,     // coordinator: writes shipped -> decision
  kPhaseReply,    // coordinator decision -> client callback
  kSend,          // time inside Transport::Send
  kHandoff,       // Send return -> receiver's handler start (same link)
  kHandler,       // time inside the delivery handler
  kLogic,         // one call of the bench-supplied TxnLogic
};

const char* SpanKindName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kClient;
  uint64_t txn = 0;        // 0 when unknown
  int64_t parent = -1;     // index of the causing span, -1 for a root
  double wall_start = 0;   // steady clock, seconds
  double wall_end = 0;
  double virt_start = 0;   // simulator clock (equals wall on real runtimes)
  double virt_end = 0;
  int64_t payload = -1;    // kSend/kHandoff/kHandler: index of the payload

  double wall() const { return wall_end - wall_start; }
  double virt() const { return virt_end - virt_start; }
};

// Length of the part of [start, end] covered by the union of the given
// intervals (each clipped to [start, end]).
double CoveredLength(double start, double end,
                     std::vector<std::pair<double, double>> intervals);

// Self time (wall clock) of every span: its duration minus the part of
// it that its children cover. A child is any span whose `parent` is the
// span and whose interval overlaps it; overlapping children are counted
// once.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// Thread-safe append-only span store. Spans stay in memory until Take()
// moves them out. A per-thread stack of open spans supplies the parent of a
// span opened while another is open on the same thread (a Send inside a
// handler, a TxnLogic call inside a handler).
class SpanRecorder {
 public:
  // `virtual_clock` returns simulator time; null = wall clock.
  explicit SpanRecorder(std::function<double()> virtual_clock = nullptr)
      : virtual_clock_(std::move(virtual_clock)) {}

  double VirtualNow() const;

  // Opens a span on this thread; its parent is the innermost span still
  // open on this thread, unless `parent` names one explicitly.
  int64_t Open(SpanKind kind, uint64_t txn, int64_t parent = -1,
               int64_t payload = -1);
  void Close(int64_t id);

  // Appends a finished span.
  int64_t Add(const Span& span);

  std::vector<Span> Take();  // moves every span out, in recording order

 private:
  std::function<double()> virtual_clock_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- send/delivery matching ---------------------------------------------

// Pairs each delivery with the send that caused it. Sends are queued per
// directed link; a delivery takes the oldest queued send with the same
// payload digest. On a FIFO link (TCP) that is always the head of the
// queue. On the simulator, where delays reorder packets, it is the
// oldest identical payload; sends older than kHorizonSeconds that were
// never delivered (dropped packets) are pruned.
class LinkMatcher {
 public:
  struct Entry {
    uint64_t digest = 0;
    double time = 0;     // send return time, matcher (virtual) clock
    double wall = 0;     // send return time, wall clock
    int64_t span = -1;   // the send span, for causality
    int64_t payload = -1;
  };

  // Far beyond any simulated link delay or TCP hand-off.
  static constexpr double kHorizonSeconds = 1.0;

  void OnSend(uint64_t from, uint64_t to, const Entry& entry);
  // Returns the matched send, if any.
  std::optional<Entry> OnDeliver(uint64_t from, uint64_t to, uint64_t digest,
                                 double now);
  size_t pending() const;

 private:
  std::map<std::pair<uint64_t, uint64_t>, std::deque<Entry>> links_;
};

uint64_t Digest(const std::string& bytes);  // FNV-1a 64

// ---- transport decorator ----------------------------------------------------

// Times every Send, every hand-off (send return -> handler start on the
// same link) and every delivery handler of the wrapped transport. While
// capture is on (the measured window) it also keeps a copy of every
// payload sent, for the codec pass. Adds no behaviour:
// every call is forwarded unchanged, so a simulator run through it draws
// the same random numbers as one without it.
class TracingTransport : public polyvalue::Transport {
 public:
  TracingTransport(polyvalue::Transport* inner, SpanRecorder* spans);

  polyvalue::Status Register(polyvalue::SiteId site, Handler handler) override;
  polyvalue::Status Unregister(polyvalue::SiteId site) override;
  polyvalue::Status Send(polyvalue::Packet packet) override;

  uint64_t sends() const;
  uint64_t bytes() const;  // payload bytes sent
  uint64_t matched() const;  // deliveries paired with their send
  // Starts or stops keeping payloads.
  void set_capture(bool on);
  // Every payload sent while capture was on, in send order; spans refer
  // to them by index (-1 for a payload that was not kept).
  std::vector<std::string> payloads() const;

 private:
  polyvalue::Transport* inner_;
  SpanRecorder* spans_;
  mutable std::mutex mu_;
  LinkMatcher matcher_;
  bool capture_ = false;
  std::vector<std::string> payloads_;
  uint64_t sends_ = 0;
  uint64_t bytes_ = 0;
  uint64_t matched_ = 0;
};

// ---- trace sink -------------------------------------------------------------

// Records every protocol event with the wall time it was emitted at.
class RecordingTraceSink : public polyvalue::TraceSink {
 public:
  void Emit(const polyvalue::TraceEvent& event) override;
  size_t size() const;
  // Moves every event out, in emission order, and the wall time of each
  // into `walls`.
  std::vector<polyvalue::TraceEvent> Take(std::vector<double>* walls);

 private:
  mutable std::mutex mu_;
  std::vector<polyvalue::TraceEvent> events_;
  std::vector<double> walls_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_

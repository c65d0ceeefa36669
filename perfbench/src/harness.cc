#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

using polyvalue::Packet;
using polyvalue::SiteId;
using polyvalue::Status;

// ---- statistics ----------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

// ---- clocks and memory ---------------------------------------------------

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0.0;
  }
  long pages_total = 0;
  long pages_resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) {
    return 0.0;
  }
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

ReferenceLoop::ReferenceLoop() {
  for (int64_t k = 1; k <= 16; ++k) {
    fns_.emplace_back([k](int64_t v) { return v * k + 1; });
  }
}

void ReferenceLoop::Run(int iterations) {
  const double start = ProcessCpuSeconds();
  for (int i = 0; i < iterations; ++i) {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    std::string key = "item/" + std::to_string(x_ % 4096);
    acc_ += fns_[x_ % fns_.size()](ordered_[key] += i);
    hashed_[x_ % 8192] = std::move(key);
    if (ordered_.size() > 3000) {
      ordered_.erase(ordered_.begin());
    }
  }
  cpu_seconds_ += ProcessCpuSeconds() - start;
  iterations_ += static_cast<uint64_t>(iterations);
}

// ---- spans ----------------------------------------------------------------

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClient:
      return "client";
    case SpanKind::kPhasePrepare:
      return "phase.prepare";
    case SpanKind::kPhaseExecute:
      return "phase.execute";
    case SpanKind::kPhaseVote:
      return "phase.vote";
    case SpanKind::kPhaseReply:
      return "phase.reply";
    case SpanKind::kSend:
      return "net.send";
    case SpanKind::kHandoff:
      return "net.handoff";
    case SpanKind::kHandler:
      return "txn.handler";
    case SpanKind::kLogic:
      return "poly.logic";
  }
  return "?";
}

double CoveredLength(double start, double end,
                     std::vector<std::pair<double, double>> intervals) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, start);
    b = std::min(b, end);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = start;
  for (const auto& [a, b] : intervals) {
    if (b <= a) {
      continue;  // empty after clipping
    }
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.wall_start,
                                                           s.wall_end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = s.wall() - CoveredLength(s.wall_start, s.wall_end,
                                       std::move(children[i]));
  }
  return self;
}

namespace {

// Open spans of the calling thread, innermost last, tagged with their
// recorder so recorders of successive runs never see each other's spans.
thread_local std::vector<std::pair<const SpanRecorder*, int64_t>> open_spans;

}  // namespace

double SpanRecorder::VirtualNow() const {
  return virtual_clock_ ? virtual_clock_() : WallSeconds();
}

int64_t SpanRecorder::Open(SpanKind kind, uint64_t txn, int64_t parent,
                           int64_t payload) {
  if (parent < 0) {
    for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
      if (it->first == this) {
        parent = it->second;
        break;
      }
    }
  }
  Span span;
  span.kind = kind;
  span.txn = txn;
  span.parent = parent;
  span.payload = payload;
  span.virt_start = VirtualNow();
  span.wall_start = WallSeconds();
  const int64_t id = Add(span);
  open_spans.emplace_back(this, id);
  return id;
}

void SpanRecorder::Close(int64_t id) {
  const double wall = WallSeconds();
  const double virt = VirtualNow();
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this && it->second == id) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.wall_end = wall;
  span.virt_end = virt;
}

int64_t SpanRecorder::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

// ---- send/delivery matching ---------------------------------------------

void LinkMatcher::OnSend(uint64_t from, uint64_t to, const Entry& entry) {
  links_[{from, to}].push_back(entry);
}

std::optional<LinkMatcher::Entry> LinkMatcher::OnDeliver(uint64_t from,
                                                         uint64_t to,
                                                         uint64_t digest,
                                                         double now) {
  auto link = links_.find({from, to});
  if (link == links_.end()) {
    return std::nullopt;
  }
  std::deque<Entry>& queue = link->second;
  // Sends this old were never delivered (dropped packets); drop them so
  // the scan below stays short.
  while (!queue.empty() && queue.front().time < now - kHorizonSeconds) {
    queue.pop_front();
  }
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (it->digest == digest) {
      const Entry matched = *it;
      queue.erase(it);
      return matched;
    }
  }
  return std::nullopt;
}

size_t LinkMatcher::pending() const {
  size_t total = 0;
  for (const auto& [link, queue] : links_) {
    total += queue.size();
  }
  return total;
}

uint64_t Digest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---- transport decorator ----------------------------------------------------

TracingTransport::TracingTransport(polyvalue::Transport* inner,
                                   SpanRecorder* spans)
    : inner_(inner), spans_(spans) {}

Status TracingTransport::Register(SiteId site, Handler handler) {
  return inner_->Register(
      site, [this, handler = std::move(handler)](Packet packet) {
        const double wall_start = WallSeconds();
        const double virt_start = spans_->VirtualNow();
        std::optional<LinkMatcher::Entry> cause;
        {
          std::lock_guard<std::mutex> lock(mu_);
          cause = matcher_.OnDeliver(packet.from.value(), packet.to.value(),
                                     Digest(packet.payload), virt_start);
          if (cause.has_value()) {
            ++matched_;
          }
        }
        int64_t parent = -1;
        int64_t payload = -1;
        if (cause.has_value()) {
          Span handoff;
          handoff.kind = SpanKind::kHandoff;
          handoff.parent = cause->span;
          handoff.payload = payload = cause->payload;
          handoff.wall_start = cause->wall;
          handoff.wall_end = wall_start;
          handoff.virt_start = cause->time;
          handoff.virt_end = virt_start;
          parent = spans_->Add(handoff);
        }
        const int64_t id =
            spans_->Open(SpanKind::kHandler, 0, parent, payload);
        handler(std::move(packet));
        spans_->Close(id);
      });
}

Status TracingTransport::Unregister(SiteId site) {
  return inner_->Unregister(site);
}

Status TracingTransport::Send(Packet packet) {
  const uint64_t from = packet.from.value();
  const uint64_t to = packet.to.value();
  LinkMatcher::Entry entry;
  entry.digest = Digest(packet.payload);
  const uint64_t size = packet.payload.size();
  // The lock spans the inner Send so sends enter the matcher in the order
  // they enter the link.
  std::lock_guard<std::mutex> lock(mu_);
  if (capture_) {
    entry.payload = static_cast<int64_t>(payloads_.size());
    payloads_.push_back(packet.payload);
  }
  entry.span = spans_->Open(SpanKind::kSend, 0, -1, entry.payload);
  const Status status = inner_->Send(std::move(packet));
  spans_->Close(entry.span);
  entry.wall = WallSeconds();
  entry.time = spans_->VirtualNow();
  ++sends_;
  bytes_ += size;
  matcher_.OnSend(from, to, entry);
  return status;
}

uint64_t TracingTransport::sends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sends_;
}

uint64_t TracingTransport::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

uint64_t TracingTransport::matched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return matched_;
}

void TracingTransport::set_capture(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_ = on;
}

std::vector<std::string> TracingTransport::payloads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return payloads_;
}

// ---- trace sink -------------------------------------------------------------

void RecordingTraceSink::Emit(const polyvalue::TraceEvent& event) {
  const double wall = WallSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
  walls_.push_back(wall);
}

std::vector<polyvalue::TraceEvent> RecordingTraceSink::Take(
    std::vector<double>* walls) {
  std::lock_guard<std::mutex> lock(mu_);
  *walls = std::move(walls_);
  return std::move(events_);
}

size_t RecordingTraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

}  // namespace perfbench

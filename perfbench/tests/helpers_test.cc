// Tests of the benchmark's own measurement helpers: the percentile
// helper and its sample count, span self time with overlapping children,
// the per-link FIFO matching of sends to deliveries in the transport
// decorator, and the reference loop's accounting. Exits non-zero if any
// check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using perfbench::LinkMatcher;
using perfbench::Span;
using perfbench::SpanKind;

void PercentileIsNearestRank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);  // unsorted on purpose
  }
  CHECK(perfbench::Percentile(v, 0.50) == 50);
  CHECK(perfbench::Percentile(v, 0.99) == 99);
  CHECK(perfbench::Percentile(v, 1.0) == 100);
  CHECK(perfbench::Percentile({7}, 0.99) == 7);
  CHECK(perfbench::Percentile({}, 0.5) == 0);
  // Small q still returns a sample, never an interpolation.
  CHECK(perfbench::Percentile({3, 1, 2}, 0.01) == 1);
}

void SamplesBeyondCountsTheTail() {
  CHECK(perfbench::SamplesBeyond(100, 0.99) == 1);
  CHECK(perfbench::SamplesBeyond(1000, 0.99) == 10);
  CHECK(perfbench::SamplesBeyond(999, 0.99) == 9);
  CHECK(perfbench::SamplesBeyond(0, 0.99) == 0);
  CHECK(perfbench::SamplesBeyond(10, 0.5) == 5);
}

void MedianAveragesTheMiddlePair() {
  CHECK(perfbench::Median({4, 1, 3, 2}) == 2.5);
  CHECK(perfbench::Median({5, 1, 3}) == 3);
  CHECK(perfbench::Mean({1, 2, 3, 6}) == 3);
}

Span At(SpanKind kind, int64_t parent, double start, double end) {
  Span s;
  s.kind = kind;
  s.parent = parent;
  s.wall_start = s.virt_start = start;
  s.wall_end = s.virt_end = end;
  return s;
}

void SelfTimeCountsOverlapOnce() {
  // Handler [0, 10] with children [1, 4] and [3, 6] (overlapping: union
  // 1..6 = 5) and [8, 12] (clipped to 8..10 = 2). Self = 10 - 7 = 3.
  std::vector<Span> spans = {
      At(SpanKind::kHandler, -1, 0, 10), At(SpanKind::kSend, 0, 1, 4),
      At(SpanKind::kLogic, 0, 3, 6),     At(SpanKind::kSend, 0, 8, 12),
      // A grandchild does not reduce the handler's self time twice.
      At(SpanKind::kLogic, 1, 2, 3),
  };
  const std::vector<double> self = perfbench::SelfTimes(spans);
  CHECK(Near(self[0], 3));
  CHECK(Near(self[1], 2));  // [1, 4] minus its child [2, 3]
  CHECK(Near(self[2], 3));
  CHECK(Near(self[3], 4));
  CHECK(Near(self[4], 1));
  // A child wholly outside its parent covers nothing.
  CHECK(Near(perfbench::CoveredLength(0, 1, {{2, 3}}), 0));
  // Nested children: the outer one already covers the inner.
  CHECK(Near(perfbench::CoveredLength(0, 10, {{1, 9}, {2, 3}}), 8));
}

void MatcherPairsFifoPerLink() {
  LinkMatcher m;
  LinkMatcher::Entry a{/*digest=*/7, /*time=*/0.1, 0, /*span=*/1, -1};
  LinkMatcher::Entry b{7, 0.2, 0, 2, -1};  // identical payload, later
  LinkMatcher::Entry c{9, 0.3, 0, 3, -1};
  LinkMatcher::Entry other{7, 0.15, 0, 4, -1};
  m.OnSend(1, 2, a);
  m.OnSend(1, 2, b);
  m.OnSend(1, 2, c);
  m.OnSend(2, 1, other);  // reverse direction: a different link
  // Identical payloads match in send order.
  auto first = m.OnDeliver(1, 2, 7, 0.5);
  CHECK(first.has_value() && first->span == 1);
  auto second = m.OnDeliver(1, 2, 7, 0.5);
  CHECK(second.has_value() && second->span == 2);
  // The reverse link kept its own queue.
  auto back = m.OnDeliver(2, 1, 7, 0.5);
  CHECK(back.has_value() && back->span == 4);
  // A delivery nobody sent does not consume anything.
  CHECK(!m.OnDeliver(1, 2, 42, 0.5).has_value());
  CHECK(m.pending() == 1);
  auto third = m.OnDeliver(1, 2, 9, 0.5);
  CHECK(third.has_value() && third->span == 3);
  CHECK(m.pending() == 0);
}

void MatcherHandlesReorderAndLoss() {
  LinkMatcher m;
  m.OnSend(1, 2, {1, 0.0, 0, 10, -1});  // will be lost
  m.OnSend(1, 2, {2, 0.1, 0, 11, -1});
  m.OnSend(1, 2, {3, 0.2, 0, 12, -1});
  // Simulated delays reorder: 3 arrives before 2.
  auto x = m.OnDeliver(1, 2, 3, 0.25);
  CHECK(x.has_value() && x->span == 12);
  auto y = m.OnDeliver(1, 2, 2, 0.3);
  CHECK(y.has_value() && y->span == 11);
  // The lost send is pruned once it is older than the horizon (1 s).
  CHECK(m.pending() == 1);
  m.OnSend(1, 2, {4, 2.0, 0, 13, -1});
  auto z = m.OnDeliver(1, 2, 4, 2.1);
  CHECK(z.has_value() && z->span == 13);
  CHECK(m.pending() == 0);
}

// A transport that hands each sent packet straight to the registered
// handler of its destination, in send order.
class LoopbackTransport : public polyvalue::Transport {
 public:
  polyvalue::Status Register(polyvalue::SiteId site,
                             Handler handler) override {
    handlers_[site.value()] = std::move(handler);
    return polyvalue::OkStatus();
  }
  polyvalue::Status Unregister(polyvalue::SiteId site) override {
    handlers_.erase(site.value());
    return polyvalue::OkStatus();
  }
  polyvalue::Status Send(polyvalue::Packet packet) override {
    queue_.push_back(std::move(packet));
    return polyvalue::OkStatus();
  }
  void DeliverAll() {
    std::vector<polyvalue::Packet> q;
    q.swap(queue_);
    for (auto& p : q) {
      handlers_[p.to.value()](std::move(p));
    }
  }

 private:
  std::map<uint64_t, Handler> handlers_;
  std::vector<polyvalue::Packet> queue_;
};

void DecoratorLinksHandlerToItsSend() {
  LoopbackTransport inner;
  perfbench::SpanRecorder spans;
  perfbench::TracingTransport tracing(&inner, &spans);
  tracing.set_capture(true);
  int delivered = 0;
  const polyvalue::SiteId s1(1), s2(2);
  CHECK(tracing.Register(s1, [&](polyvalue::Packet) { ++delivered; }).ok());
  CHECK(tracing
            .Register(s2,
                      [&](polyvalue::Packet) {
                        ++delivered;
                        // A send from inside a handler is its child.
                        CHECK(tracing.Send({s2, s1, "reply"}).ok());
                      })
            .ok());
  CHECK(tracing.Send({s1, s2, "same"}).ok());
  CHECK(tracing.Send({s1, s2, "same"}).ok());
  inner.DeliverAll();  // two handlers on s2, each sending a reply
  inner.DeliverAll();  // two replies on s1
  CHECK(delivered == 4);
  CHECK(tracing.sends() == 4);
  CHECK(tracing.matched() == 4);
  CHECK(tracing.bytes() == 4 + 4 + 5 + 5);
  const std::vector<Span> all = spans.Take();
  std::vector<int64_t> send_ids;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].kind == SpanKind::kSend && all[i].parent < 0) {
      send_ids.push_back(static_cast<int64_t>(i));
    }
  }
  CHECK(send_ids.size() == 2);  // the two client sends are roots
  int handoffs = 0;
  int nested_sends = 0;
  for (const Span& s : all) {
    if (s.kind == SpanKind::kHandoff) {
      ++handoffs;
      CHECK(all[static_cast<size_t>(s.parent)].kind == SpanKind::kSend);
      CHECK(s.payload >= 0);
    }
    if (s.kind == SpanKind::kHandler) {
      CHECK(s.parent >= 0 &&
            all[static_cast<size_t>(s.parent)].kind == SpanKind::kHandoff);
    }
    if (s.kind == SpanKind::kSend && s.parent >= 0) {
      ++nested_sends;
      CHECK(all[static_cast<size_t>(s.parent)].kind == SpanKind::kHandler);
    }
  }
  CHECK(handoffs == 4);
  CHECK(nested_sends == 2);
  // First delivery on s1->s2 pairs with the first send (FIFO).
  for (const Span& s : all) {
    if (s.kind == SpanKind::kHandoff &&
        all[static_cast<size_t>(s.parent)].parent < 0) {
      CHECK(s.parent == send_ids[0] || s.parent == send_ids[1]);
    }
  }
  int64_t first_handoff_parent = -1;
  for (const Span& s : all) {
    if (s.kind == SpanKind::kHandoff) {
      first_handoff_parent = s.parent;
      break;
    }
  }
  CHECK(first_handoff_parent == send_ids[0]);
  // Payloads are kept only while capture is on.
  CHECK(tracing.payloads().size() == 4);
  tracing.set_capture(false);
  CHECK(tracing.Send({s1, s2, "late"}).ok());
  CHECK(tracing.payloads().size() == 4);
  CHECK(tracing.sends() == 5);
}

void ReferenceLoopAccumulates() {
  perfbench::ReferenceLoop reference;
  CHECK(reference.iterations() == 0 && reference.cpu_seconds() == 0);
  reference.Run(20000);
  const double first = reference.cpu_seconds();
  CHECK(first > 0);
  reference.Run(20000);
  CHECK(reference.iterations() == 40000);
  CHECK(reference.cpu_seconds() > first);
}

}  // namespace

int main() {
  PercentileIsNearestRank();
  SamplesBeyondCountsTheTail();
  MedianAveragesTheMiddlePair();
  SelfTimeCountsOverlapOnce();
  MatcherPairsFifoPerLink();
  MatcherHandlesReorderAndLoss();
  DecoratorLinksHandlerToItsSend();
  ReferenceLoopAccumulates();
  if (failures != 0) {
    std::fprintf(stderr, "%d helper check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}

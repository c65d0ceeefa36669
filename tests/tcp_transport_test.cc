// Tests for the TCP loopback transport.
#include "src/net/tcp_transport.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/net/wire.h"
#include "src/system/cluster.h"
#include "src/txn/messages.h"

namespace polyvalue {
namespace {

const SiteId kA(1);
const SiteId kB(2);

// Waits until `predicate` holds or `seconds` pass.
template <typename Pred>
bool WaitFor(Pred predicate, double seconds = 2.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// `body` behind its u32 little-endian length prefix.
std::string WithLength(const std::string& body) {
  ByteWriter w;
  w.PutFixed32(static_cast<uint32_t>(body.size()));
  w.PutRaw(body.data(), body.size());
  return w.Take();
}

// A well-formed frame, byte for byte what TcpTransport writes.
std::string Frame(uint64_t from, uint64_t to, const std::string& payload) {
  ByteWriter body;
  body.PutVarint(from);
  body.PutVarint(to);
  body.PutRaw(payload.data(), payload.size());
  return WithLength(body.buffer());
}

// The first bytes of the multi-packet frame the transport no longer has.
const std::string kOldBatchMagic{'\xB7', '\x50', '\x01'};

// A plain loopback client writing raw bytes to a transport endpoint.
class RawPeer {
 public:
  explicit RawPeer(uint16_t port) : fd_(socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 && connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                     sizeof(addr)) == 0;
  }
  ~RawPeer() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  bool connected() const { return connected_; }

  bool Write(const std::string& bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = write(fd_, bytes.data() + done, bytes.size() - done);
      if (n <= 0) {
        return false;
      }
      done += static_cast<size_t>(n);
    }
    return true;
  }

  // True once the endpoint closes its side (EOF or reset) within ~2 s.
  bool ClosedByEndpoint() {
    pollfd pfd{fd_, POLLIN, 0};
    if (poll(&pfd, 1, 2000) <= 0) {
      return false;
    }
    char byte;
    return read(fd_, &byte, 1) <= 0;
  }

 private:
  int fd_;
  bool connected_ = false;
};

TEST(TcpTransportTest, EndpointsGetPorts) {
  TcpTransport transport;
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport.Register(kB, [](Packet) {}).ok());
  EXPECT_NE(transport.PortOf(kA), 0);
  EXPECT_NE(transport.PortOf(kB), 0);
  EXPECT_NE(transport.PortOf(kA), transport.PortOf(kB));
}

TEST(TcpTransportTest, RoundTripOverRealSockets) {
  TcpTransport transport;
  std::atomic<int> got{0};
  Mutex mu;
  Packet last;
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              MutexLock lock(&mu);
                              last = p;
                              ++got;
                            })
                  .ok());
  ASSERT_TRUE(transport.Send({kA, kB, "over tcp"}).ok());
  ASSERT_TRUE(WaitFor([&] { return got.load() == 1; }));
  MutexLock lock(&mu);
  EXPECT_EQ(last.payload, "over tcp");
  EXPECT_EQ(last.from, kA);
  EXPECT_EQ(last.to, kB);
}

TEST(TcpTransportTest, ManyFramesInOrderOverOneConnection) {
  TcpTransport transport;
  Mutex mu;
  std::vector<std::string> payloads;
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              MutexLock lock(&mu);
                              payloads.push_back(p.payload);
                            })
                  .ok());
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(transport.Send({kA, kB, std::to_string(i)}).ok());
  }
  ASSERT_TRUE(WaitFor([&] {
    MutexLock lock(&mu);
    return payloads.size() == static_cast<size_t>(n);
  }));
  MutexLock lock(&mu);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(payloads[i], std::to_string(i));
  }
}

TEST(TcpTransportTest, LargePayload) {
  TcpTransport transport;
  std::atomic<bool> got{false};
  std::string received;
  Mutex mu;
  const std::string big(1 << 20, 'z');  // 1 MiB frame
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              MutexLock lock(&mu);
                              received = p.payload;
                              got = true;
                            })
                  .ok());
  ASSERT_TRUE(transport.Send({kA, kB, big}).ok());
  ASSERT_TRUE(WaitFor([&] { return got.load(); }));
  MutexLock lock(&mu);
  EXPECT_EQ(received.size(), big.size());
  EXPECT_EQ(received, big);
}

TEST(TcpTransportTest, BidirectionalTraffic) {
  TcpTransport transport;
  std::atomic<int> a_got{0};
  std::atomic<int> b_got{0};
  ASSERT_TRUE(transport.Register(kA, [&](Packet) { ++a_got; }).ok());
  ASSERT_TRUE(transport.Register(kB, [&](Packet) { ++b_got; }).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(transport.Send({kA, kB, "ab"}).ok());
    ASSERT_TRUE(transport.Send({kB, kA, "ba"}).ok());
  }
  EXPECT_TRUE(WaitFor([&] { return a_got == 50 && b_got == 50; }));
}

TEST(TcpTransportTest, SendToUnknownSiteIsLostNotFatal) {
  TcpTransport transport;
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  EXPECT_TRUE(transport.Send({kA, SiteId(99), "void"}).ok());
}

TEST(TcpTransportTest, UnregisteredSenderRejected) {
  TcpTransport transport;
  EXPECT_FALSE(transport.Send({kA, kB, "x"}).ok());
}

TEST(TcpTransportTest, UnregisterThenTrafficContinuesElsewhere) {
  TcpTransport transport;
  std::atomic<int> got{0};
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport.Register(kB, [&](Packet) { ++got; }).ok());
  ASSERT_TRUE(transport.Send({kA, kB, "1"}).ok());
  ASSERT_TRUE(WaitFor([&] { return got.load() == 1; }));
  ASSERT_TRUE(transport.Unregister(kB).ok());
  EXPECT_TRUE(transport.Send({kA, kB, "2"}).ok());  // dropped quietly
  const SiteId kC(3);
  std::atomic<int> c_got{0};
  ASSERT_TRUE(transport.Register(kC, [&](Packet) { ++c_got; }).ok());
  ASSERT_TRUE(transport.Send({kA, kC, "3"}).ok());
  EXPECT_TRUE(WaitFor([&] { return c_got.load() == 1; }));
}

TEST(TcpTransportTest, CoalescedLargeFramesKeepPerSenderOrder) {
  // Four threads share the one A->B connection. An I/O pass coalesces
  // up to a window of 64 KiB frames per sender into one buffer, far past
  // the socket buffer, so writes end mid-frame and the receiver
  // reassembles frames across reads. Every packet must arrive intact and
  // in its sender's order.
  constexpr int kSenders = 4;
  constexpr int kPerSender = 500;
  constexpr size_t kPayload = 64 * 1024;
  constexpr int kWindow = 64;  // in-flight packets per sender
  TcpTransport transport;
  std::atomic<int> delivered[kSenders] = {};
  std::atomic<int> misordered{0};
  std::atomic<int> corrupt{0};
  std::vector<int> next_seq(kSenders, 0);  // touched by B's I/O thread only
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              if (p.payload.size() != kPayload) {
                                ++corrupt;
                                return;
                              }
                              const int sender = p.payload[0];
                              const int seq =
                                  (static_cast<uint8_t>(p.payload[1]) << 8) |
                                  static_cast<uint8_t>(p.payload[2]);
                              if (sender < 0 || sender >= kSenders ||
                                  p.payload.back() !=
                                      static_cast<char>(seq)) {
                                ++corrupt;
                                return;
                              }
                              if (seq != next_seq[sender]) {
                                ++misordered;
                              }
                              next_seq[sender] = seq + 1;
                              ++delivered[sender];
                            })
                  .ok());
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&transport, &delivered, t] {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      for (int seq = 0; seq < kPerSender; ++seq) {
        while (seq - delivered[t].load() >= kWindow &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        std::string payload(kPayload, static_cast<char>(seq));
        payload[0] = static_cast<char>(t);
        payload[1] = static_cast<char>(seq >> 8);
        payload[2] = static_cast<char>(seq & 0xff);
        ASSERT_TRUE(transport.Send({kA, kB, std::move(payload)}).ok());
      }
    });
  }
  for (auto& sender : senders) {
    sender.join();
  }
  EXPECT_TRUE(WaitFor(
      [&] {
        for (const auto& count : delivered) {
          if (count.load() != kPerSender) {
            return false;
          }
        }
        return true;
      },
      60.0));
  for (int t = 0; t < kSenders; ++t) {
    EXPECT_EQ(delivered[t].load(), kPerSender) << "sender " << t;
  }
  EXPECT_EQ(misordered.load(), 0);
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(transport.packets_delivered(),
            static_cast<uint64_t>(kSenders * kPerSender));
}

TEST(TcpTransportTest, HostilePeerBytesNeverStopAnEndpoint) {
  TcpTransport transport;
  std::atomic<int> from_a{0};
  Mutex mu;
  std::vector<Packet> hostile;  // everything not sent by A
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              if (p.from == kA) {
                                ++from_a;
                                return;
                              }
                              MutexLock lock(&mu);
                              hostile.push_back(std::move(p));
                            })
                  .ok());
  const auto still_delivers = [&] {
    const int before = from_a.load();
    return transport.Send({kA, kB, "ping"}).ok() &&
           WaitFor([&] { return from_a.load() == before + 1; });
  };
  const auto hostile_count = [&] {
    MutexLock lock(&mu);
    return hostile.size();
  };
  const uint16_t port = transport.PortOf(kB);

  {  // Half a frame, then close: nothing is delivered.
    RawPeer peer(port);
    ASSERT_TRUE(peer.connected());
    ASSERT_TRUE(peer.Write(Frame(9, 2, "complete").substr(0, 7)));
  }
  EXPECT_TRUE(still_delivers());

  {  // A length prefix above 64 MiB: the endpoint drops the connection.
    RawPeer peer(port);
    ASSERT_TRUE(peer.connected());
    ByteWriter header;
    header.PutFixed32(64u * 1024 * 1024 + 1);
    ASSERT_TRUE(peer.Write(header.Take()));
    EXPECT_TRUE(peer.ClosedByEndpoint());
  }
  EXPECT_TRUE(still_delivers());

  {  // Undecodable varints: that frame is skipped, and the stream stays
     // framed, so the next frame on the connection still arrives.
    RawPeer peer(port);
    ASSERT_TRUE(peer.connected());
    ASSERT_TRUE(peer.Write(WithLength(std::string(11, '\xff')) +
                           Frame(9, 2, "after")));
    ASSERT_TRUE(WaitFor([&] { return hostile_count() == 1; }));
    MutexLock lock(&mu);
    EXPECT_EQ(hostile[0].from, SiteId(9));
    EXPECT_EQ(hostile[0].payload, "after");
  }
  EXPECT_TRUE(still_delivers());

  {  // The old batch magic is no longer special: one opaque payload,
     // which no protocol message decodes from.
    const std::string payload = kOldBatchMagic + std::string("\x02\x07xyz");
    RawPeer peer(port);
    ASSERT_TRUE(peer.connected());
    ASSERT_TRUE(peer.Write(Frame(9, 2, payload)));
    ASSERT_TRUE(WaitFor([&] { return hostile_count() == 2; }));
    MutexLock lock(&mu);
    EXPECT_EQ(hostile[1].payload, payload);
    EXPECT_FALSE(Message::Decode(hostile[1].payload).ok());
  }
  EXPECT_TRUE(still_delivers());
  EXPECT_EQ(hostile_count(), 2u);
}

TEST(TcpTransportTest, HostileBytesNeverStopASite) {
  // The same bytes aimed at a live site: Site::OnPacket drops what does
  // not decode, and the site keeps committing.
  TcpTransport tcp;
  ThreadCluster::Options options;
  options.site_count = 2;
  options.transport = &tcp;
  ThreadCluster cluster(options);
  cluster.Load(1, "x", Value::Int(1));
  {
    RawPeer peer(tcp.PortOf(cluster.site_id(1)));
    ASSERT_TRUE(peer.connected());
    ASSERT_TRUE(peer.Write(Frame(1, 2, kOldBatchMagic + "xyz") +
                           WithLength(std::string(11, '\xff')) +
                           Frame(1, 2, std::string("\x01\xff", 2))));
    ByteWriter header;
    header.PutFixed32(64u * 1024 * 1024 + 1);
    ASSERT_TRUE(peer.Write(header.Take()));
    EXPECT_TRUE(peer.ClosedByEndpoint());
  }
  TxnSpec spec;
  spec.ReadWrite("x", cluster.site_id(1));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["x"] = Value::Int(reads.IntAt("x") + 1);
    return e;
  });
  const auto result = cluster.SubmitAndWait(0, std::move(spec), 15.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  EXPECT_TRUE(WaitFor([&cluster] {
    const Result<PolyValue> x = cluster.site(1).Peek("x");
    return x.ok() && x.value().is_certain() &&
           x.value().certain_value() == Value::Int(2);
  }));
}

}  // namespace
}  // namespace polyvalue

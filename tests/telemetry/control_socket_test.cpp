// Control-socket tests (DESIGN.md §13): the wire protocol through
// HandleLine (framing, error codes, HTTP endpoints), a real TCP client
// against the serving thread, and a Concurrent test where control-plane
// scrapes race live ThreadScheduler workers — the thread-safety contract
// the whole introspection plane rests on (runs under TSan in CI).
#include "telemetry/control_socket.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "click/elements/from_device.hpp"
#include "click/elements/queue.hpp"
#include "click/elements/to_device.hpp"
#include "click/router.hpp"
#include "click/scheduler.hpp"
#include "packet/pool.hpp"
#include "telemetry/flight_recorder.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace telemetry {
namespace {

// --- HandleLine: the protocol core without socket I/O ---

class HandleLineTest : public ::testing::Test {
 protected:
  HandleLineTest() : server_(&handlers_, &registry_) {
    handlers_.AddRead("q.occupancy", [] { return std::string("17"); });
    handlers_.AddRead("q.hi", [this] { return std::to_string(hi_); });
    handlers_.AddWrite("q.hi", [this](const std::string& v) {
      uint64_t parsed = 0;
      if (!ParseHandlerU64(v, &parsed)) {
        return HandlerResult::Error("want integer, got '" + v + "'");
      }
      hi_ = parsed;
      return HandlerResult::Ok();
    });
    registry_.GetCounter("test/packets")->Add(5);
  }

  std::string Run(const std::string& line) {
    bool close_after = false;
    return server_.HandleLine(line, &close_after);
  }

  HandlerRegistry handlers_;
  MetricRegistry registry_;
  ControlSocketServer server_;
  uint64_t hi_ = 100;
  std::string last_write_;
};

TEST_F(HandleLineTest, ReadFramesPayload) {
  EXPECT_EQ(Run("READ q.occupancy"), "200 DATA 2\n17\n");
}

TEST_F(HandleLineTest, WriteAppliesAndAcks) {
  EXPECT_EQ(Run("WRITE q.hi 64"), "200 OK\n");
  EXPECT_EQ(hi_, 64u);
  EXPECT_EQ(Run("READ q.hi"), "200 DATA 2\n64\n");
}

TEST_F(HandleLineTest, WriteValueIsRestOfLineCasePreserved) {
  handlers_.AddWrite("x.text", [this](const std::string& v) {
    last_write_ = v;
    return HandlerResult::Ok();
  });
  EXPECT_EQ(Run("WRITE x.text Hello World 42"), "200 OK\n");
  EXPECT_EQ(last_write_, "Hello World 42");
}

TEST_F(HandleLineTest, ListEnumeratesWithAccessTags) {
  std::string resp = Run("LIST");
  EXPECT_EQ(resp.rfind("200 DATA ", 0), 0u);
  EXPECT_NE(resp.find("rw q.hi\n"), std::string::npos);
  EXPECT_NE(resp.find("r  q.occupancy\n"), std::string::npos);

  resp = Run("LIST q.o");
  EXPECT_NE(resp.find("q.occupancy"), std::string::npos);
  EXPECT_EQ(resp.find("q.hi"), std::string::npos);
}

TEST_F(HandleLineTest, ErrorCodes) {
  EXPECT_EQ(Run("READ nope.nothing"), "510 no such handler: nope.nothing\n");
  EXPECT_EQ(Run("READ").rfind("500 malformed", 0), 0u);
  EXPECT_EQ(Run("WRITE q.hi banana").rfind("540 write rejected: want integer", 0), 0u);
  EXPECT_EQ(Run("WRITE nope.nothing 1").rfind("510", 0), 0u);
  EXPECT_EQ(Run("FROB q"), "500 unknown command: FROB\n");
  EXPECT_EQ(Run(""), "");  // blank lines (HTTP header tails) are ignored
}

TEST_F(HandleLineTest, VerbIsCaseInsensitivePathIsNot) {
  EXPECT_EQ(Run("read q.occupancy"), "200 DATA 2\n17\n");
  EXPECT_EQ(Run("READ Q.OCCUPANCY").rfind("510", 0), 0u);
}

TEST_F(HandleLineTest, QuitClosesConnection) {
  bool close_after = false;
  EXPECT_EQ(server_.HandleLine("QUIT", &close_after), "200 bye\n");
  EXPECT_TRUE(close_after);
}

TEST_F(HandleLineTest, HttpMetricsEndpoints) {
  bool close_after = false;
  std::string resp = server_.HandleLine("GET /metrics HTTP/1.1", &close_after);
  EXPECT_TRUE(close_after);
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("# TYPE rb_counter counter"), std::string::npos);
  EXPECT_NE(resp.find("rb_counter{name=\"test/packets\"} 5"), std::string::npos);

  resp = server_.HandleLine("GET /metrics.json", &close_after);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"counters\""), std::string::npos);

  resp = server_.HandleLine("GET /nope", &close_after);
  EXPECT_EQ(resp.rfind("HTTP/1.0 404", 0), 0u);
}

// --- real sockets ---

// Minimal blocking TCP client for the framed line protocol.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<uint16_t>(port));
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  bool connected() const { return connected_; }

  void Send(const std::string& line) {
    std::string out = line + "\n";
    EXPECT_EQ(::write(fd_, out.data(), out.size()), static_cast<ssize_t>(out.size()));
  }

  // Reads one response: either a framed payload or a single status line.
  std::string ReadResponse() {
    std::string status = ReadLine();
    if (status.rfind("200 DATA ", 0) == 0) {
      size_t n = std::strtoull(status.c_str() + 9, nullptr, 10);
      std::string payload = ReadExact(n + 1);
      payload.resize(n);
      return payload;
    }
    return status;
  }

  std::string Command(const std::string& line) {
    Send(line);
    return ReadResponse();
  }

  std::string ReadAll() {  // until peer closes (HTTP responses)
    std::string data = buf_;
    buf_.clear();
    char tmp[4096];
    ssize_t n;
    while ((n = ::read(fd_, tmp, sizeof(tmp))) > 0) {
      data.append(tmp, static_cast<size_t>(n));
    }
    return data;
  }

 private:
  bool Fill() {
    char tmp[4096];
    ssize_t n = ::read(fd_, tmp, sizeof(tmp));
    if (n <= 0) {
      return false;
    }
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }
  std::string ReadLine() {
    size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      if (!Fill()) {
        return "";
      }
    }
    std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }
  std::string ReadExact(size_t n) {
    while (buf_.size() < n) {
      if (!Fill()) {
        return "";
      }
    }
    std::string out = buf_.substr(0, n);
    buf_.erase(0, n);
    return out;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

TEST(ControlSocketTest, ServesEphemeralTcpPort) {
  HandlerRegistry handlers;
  handlers.AddRead("x.v", [] { return std::string("ok!"); });
  MetricRegistry registry;
  ControlSocketServer server(&handlers, &registry);
  std::string err;
  ASSERT_TRUE(server.Start("0", &err)) << err;
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.Command("READ x.v"), "ok!");
  EXPECT_EQ(client.Command("READ gone"), "510 no such handler: gone");
  EXPECT_GE(server.connections_accepted(), 1u);
  EXPECT_GE(server.commands_served(), 2u);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(ControlSocketTest, HttpScrapeOverSocketThenCloses) {
  HandlerRegistry handlers;
  MetricRegistry registry;
  registry.GetCounter("scrape/me")->Add(3);
  ControlSocketServer server(&handlers, &registry);
  ASSERT_TRUE(server.Start("0"));

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send("GET /metrics HTTP/1.0\r");
  std::string full = client.ReadAll();
  EXPECT_EQ(full.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(full.find("rb_counter{name=\"scrape/me\"} 3"), std::string::npos);
  server.Stop();
}

TEST(ControlSocketTest, SecondClientWhileFirstHasPendingOutput) {
  // Regression test for the poll-loop indexing bug: a connection accepted
  // in the same poll iteration where an existing client still has queued
  // output used to read a stale pollfd slot and could be reset.
  HandlerRegistry handlers;
  handlers.AddRead("x.big", [] { return std::string(300000, 'z'); });
  MetricRegistry registry;
  ControlSocketServer server(&handlers, &registry);
  ASSERT_TRUE(server.Start("0"));

  TestClient first(server.port());
  ASSERT_TRUE(first.connected());
  // Queue a large framed response but do not consume it yet: the server
  // sits in a pending-flush state (the kernel buffer fills) while the
  // second client connects and transacts.
  first.Send("READ x.big");
  TestClient second(server.port());
  ASSERT_TRUE(second.connected());
  EXPECT_EQ(second.Command("READ x.big").size(), 300000u);
  EXPECT_EQ(first.ReadResponse().size(), 300000u);
  server.Stop();
}

// --- the TSan contract: scrapes race live workers ---

FrameSpec Frame64(uint16_t port) {
  FrameSpec spec;
  spec.size = 64;
  spec.flow.src_ip = 100u + port;
  spec.flow.dst_ip = 200;
  spec.flow.src_port = port;
  spec.flow.protocol = 17;
  return spec;
}

TEST(ControlSocketTest, ConcurrentScrapesRaceLiveWorkers) {
  // Two scheduler workers move packets through FromDevice -> Queue ->
  // ToDevice while a control client LISTs, READs occupancy/counters,
  // WRITEs watermarks and CoDel knobs and reads them back, and snapshots
  // the registry over a real socket. Under TSan (the CI *Concurrent* filter) this proves the
  // handler bodies only touch data that is safe against hot-path writers.
  //
  // A fixed set of packets circulates feeder -> rx -> queue -> tx ->
  // feeder; the pool is only touched before Start and after Stop (it is
  // deliberately not thread-safe, per-core in real deployments).
  PacketPool pool(256);
  NicConfig cfg;
  cfg.num_rx_queues = 2;
  cfg.num_tx_queues = 2;
  NicPort in(cfg);
  NicPort out(cfg);
  Router router;
  QueueOptions qopt;
  qopt.capacity = 1024;
  qopt.hi_watermark = 768;
  for (uint16_t q = 0; q < 2; ++q) {
    auto* from = router.Add<FromDevice>(&in, q, 32, q);
    auto* queue = router.Add<QueueElement>(qopt);
    auto* to = router.Add<ToDevice>(&out, q, 32, q);
    router.Connect(from, 0, queue, 0);
    router.Connect(queue, 0, to, 0);
  }
  MetricRegistry registry;
  router.BindTelemetry(&registry, nullptr);
  router.Initialize();

  FlightRecorder recorder(256);
  FlightRecorder::Install(&recorder);

  HandlerRegistry handlers;
  router.AddHandlers(&handlers);
  ControlSocketServer server(&handlers, &registry);
  ASSERT_TRUE(server.Start("0"));

  // 64 packets in flight, re-delivered as they come out the far side.
  std::vector<Packet*> seed;
  for (uint32_t i = 0; i < 64; ++i) {
    Packet* p = AllocFrame(Frame64(static_cast<uint16_t>(i % 2)), &pool);
    ASSERT_NE(p, nullptr);
    seed.push_back(p);
  }

  ThreadScheduler sched(&router, 2);
  sched.Start();

  std::atomic<bool> feeding{true};
  std::thread feeder([&] {
    for (Packet* p : seed) {
      in.Deliver(p, 0.0);
    }
    Packet* burst[64];
    while (feeding.load(std::memory_order_acquire)) {
      size_t n = out.DrainTx(burst, 64);
      for (size_t k = 0; k < n; ++k) {
        in.Deliver(burst[k], 0.0);
      }
      if (n == 0) {
        std::this_thread::yield();
      }
    }
  });

  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    std::string listing = client.Command("LIST");
    ASSERT_NE(listing.find(".occupancy"), std::string::npos);
    // First queue name from the listing.
    size_t occ = listing.find(".occupancy");
    size_t start = listing.rfind(' ', occ);
    std::string qname = listing.substr(start + 1, occ - start - 1);

    for (int iter = 0; iter < 200; ++iter) {
      std::string v = client.Command("READ " + qname + ".occupancy");
      EXPECT_FALSE(v.empty());
      client.Command("READ " + qname + ".counts");
      client.Command("READ " + qname + ".highwater");
      client.Command("READ router.tasks");
      // Live retuning round trip: each write is read back while the
      // workers keep moving packets through the queue.
      const std::string hi = (iter % 2) != 0 ? "512" : "768";
      const std::string target = (iter % 2) != 0 ? "750.0" : "5000.0";
      EXPECT_EQ(client.Command("WRITE " + qname + ".hi " + hi), "200 OK");
      EXPECT_EQ(client.Command("WRITE " + qname + ".codel_target_us " + target), "200 OK");
      EXPECT_EQ(client.Command("READ " + qname + ".hi"), hi);
      EXPECT_EQ(client.Command("READ " + qname + ".codel_target_us"), target);
      RegistrySnapshot snap = registry.Snapshot();
      EXPECT_GE(snap.counters.size(), 1u);
    }
  }

  feeding.store(false, std::memory_order_release);
  feeder.join();
  sched.Stop();
  server.Stop();
  FlightRecorder::Install(nullptr);

  // Recycle every in-flight packet now that all threads are joined.
  Packet* burst[256];
  size_t n;
  while ((n = out.DrainTx(burst, 256)) > 0) {
    for (size_t i = 0; i < n; ++i) {
      pool.Free(burst[i]);
    }
  }
}

}  // namespace
}  // namespace telemetry
}  // namespace rb

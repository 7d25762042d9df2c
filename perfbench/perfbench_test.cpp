// Tests of the benchmark's own machinery: seeded inputs, the open-loop
// generator's due-time latency, failure accounting and the percentile
// and overload rules. The generator runs against a stub server whose
// stalls and faults the tests place exactly.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bench_util.hpp"
#include "load_gen.hpp"
#include "offload/dispatch.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

using namespace perfbench;
using namespace plfsr::offload;

namespace {

/// Serial ping server: one connection at a time, echoing each ping. The
/// request with global index `stall_at` is answered `stall_ms` late; the
/// one at `error_at` gets a kBadFrame error reply; the one at
/// `corrupt_at` gets a kOk reply with a flipped payload byte.
class StubServer {
 public:
  struct Options {
    int stall_at = -1;
    int stall_ms = 0;
    int error_at = -1;
    int corrupt_at = -1;
    int service_us = 0;  // per-request service time
  };

  explicit StubServer(Options o) : opts_(o) {
    listener_ = listen_tcp(0, 16);
    port_ = local_port(listener_.fd());
    thread_ = std::thread([this] { run(); });
  }
  ~StubServer() {
    stop_ = true;
    thread_.join();
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  static bool readable(int fd) {
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, 20) > 0;
  }

  void serve(Socket& s) {
    while (!stop_) {
      if (!readable(s.fd())) continue;
      std::uint8_t len[4];
      if (read_full(s.fd(), len, 4, 1000) != IoResult::kOk) return;
      const std::uint32_t n = len[0] | (len[1] << 8) | (len[2] << 16) |
                              (static_cast<std::uint32_t>(len[3]) << 24);
      std::vector<std::uint8_t> body(n);
      if (read_full(s.fd(), body.data(), n, 1000) != IoResult::kOk) return;
      Request req;
      if (decode_request_body(body, req) != Status::kOk) return;
      const int idx = count_++;
      if (opts_.service_us > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(opts_.service_us));
      if (idx == opts_.stall_at)
        std::this_thread::sleep_for(std::chrono::milliseconds(opts_.stall_ms));
      Response resp{Status::kOk, Op::kPing, req.payload.size(), req.payload};
      if (idx == opts_.error_at) resp = Response{Status::kBadFrame, req.op, 0, {}};
      if (idx == opts_.corrupt_at) resp.payload[0] ^= 1;
      const std::vector<std::uint8_t> wire = encode_response(resp);
      if (write_full(s.fd(), wire.data(), wire.size(), 1000) != IoResult::kOk)
        return;
    }
  }

  void run() {
    while (!stop_) {
      if (!readable(listener_.fd())) continue;
      Socket s(::accept(listener_.fd(), nullptr, nullptr));
      if (s.valid()) serve(s);
    }
  }

  Options opts_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> count_{0};
  std::thread thread_;
};

std::vector<WireTemplate> ping_templates() {
  const OffloadDispatcher d;
  Request req;
  req.op = Op::kPing;
  req.payload = plfsr::Rng(1).next_bytes(64);
  return {{"ping/64", Op::kPing, encode_request(req),
           encode_response(d.dispatch(req))}};
}

PhaseStats run_open(std::uint16_t port, const std::vector<WireTemplate>& t,
                    double rate, double seconds) {
  LoadGenerator gen("127.0.0.1", port, 1, t, {0}, 2000);
  EXPECT_TRUE(gen.connect());
  return gen.run({.open_loop = true, .rate_per_s = rate, .seconds = seconds,
                  .trace = true});
}

TEST(Inputs, SameSeedSameRequests) {
  const OffloadDispatcher d;
  for (const char* w : {"offload-small", "offload-bulk"}) {
    const OffloadPool a = make_offload_pool(w, 7, d);
    const OffloadPool b = make_offload_pool(w, 7, d);
    const OffloadPool c = make_offload_pool(w, 8, d);
    ASSERT_EQ(a.templates.size(), b.templates.size());
    for (std::size_t i = 0; i < a.templates.size(); ++i) {
      EXPECT_EQ(a.templates[i].req, b.templates[i].req) << w << " " << i;
      EXPECT_EQ(a.templates[i].resp, b.templates[i].resp) << w << " " << i;
    }
    EXPECT_EQ(a.sequence, b.sequence) << w;
    EXPECT_NE(a.sequence, c.sequence) << w;
  }
}

TEST(Inputs, UnknownWorkloadRejected) {
  const OffloadDispatcher d;
  EXPECT_THROW(make_offload_pool("offload-huge", 1, d), std::invalid_argument);
}

TEST(OpenLoop, StallIsChargedToRequestsScheduledBehindIt) {
  // 2000 req/s on one connection: while request 100 stalls 50 ms, about
  // 100 more fall due. Timed from their due times, they all show it.
  StubServer srv({.stall_at = 100, .stall_ms = 50});
  const PhaseStats st = run_open(srv.port(), ping_templates(), 2000, 0.3);
  ASSERT_EQ(st.failed, 0u);
  ASSERT_EQ(st.traces.size(), st.verified);
  ASSERT_GT(st.traces.size(), 120u);
  const auto lat_ms = [&](std::size_t i) {
    return (st.traces[i].verified - st.traces[i].due) * 1e-6;
  };
  EXPECT_GE(lat_ms(100), 50.0);
  EXPECT_GE(lat_ms(110), 40.0);  // due 5 ms after the stall began
  EXPECT_LT(lat_ms(0), 10.0);
  std::size_t charged = 0;
  for (std::size_t i = 0; i < st.traces.size(); ++i) charged += lat_ms(i) > 25;
  EXPECT_GE(charged, 40u);
  // The generator kept its schedule during the stall.
  std::vector<double> lag = st.lag_us;
  EXPECT_LT(quantile(lag, 0.5).value_or(1e9), 2000.0);
}

TEST(OpenLoop, SpansTileTheRequest) {
  StubServer srv({});
  const PhaseStats st = run_open(srv.port(), ping_templates(), 1000, 0.1);
  ASSERT_GT(st.traces.size(), 50u);
  for (const ReqTrace& t : st.traces) {
    EXPECT_LE(t.due, t.send0);
    EXPECT_LE(t.send0, t.send1);
    EXPECT_LE(t.send1, t.first);
    EXPECT_LE(t.first, t.done);
    EXPECT_LE(t.done, t.verified);
  }
}

TEST(Failures, ErrorReplyCostsOneOperation) {
  StubServer srv({.error_at = 50});
  const PhaseStats st = run_open(srv.port(), ping_templates(), 1000, 0.2);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.error_replies, 1u);
  EXPECT_EQ(st.mismatches, 0u);
  EXPECT_EQ(st.reconnects, 1u);
  EXPECT_EQ(st.verified + 1, st.attempted);
  EXPECT_GE(st.attempted, 190u);
}

TEST(Failures, MismatchCostsOneOperation) {
  StubServer srv({.corrupt_at = 30});
  const PhaseStats st = run_open(srv.port(), ping_templates(), 1000, 0.2);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.mismatches, 1u);
  EXPECT_EQ(st.reconnects, 1u);
  EXPECT_EQ(st.verified + 1, st.attempted);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_FALSE(quantile(v, 0.99).has_value());
  v.resize(1010);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  ASSERT_TRUE(quantile(v, 0.99).has_value());
  EXPECT_EQ(*quantile(v, 0.99), 999.0);
  EXPECT_EQ(*quantile(v, 0.5), 504.0);
}

TEST(Percentile, StalledWindowsDoNotMoveTheWindowedFigure) {
  // Twelve 1000-sample windows at 50 us, three of them hit by a stall
  // that pushes their tail into milliseconds: the windowed p99 stays at
  // the calm windows' figure.
  LatencySamples s;
  for (int w = 0; w < 12; ++w)
    for (int i = 0; i < 1000; ++i) {
      const bool stalled = w % 4 == 1 && i >= 950;
      s.add((w + i / 1000.0) * kWindowS, stalled ? 5000.0 : 50.0 + i % 10);
    }
  ASSERT_EQ(window_quantiles(s, 0.99).size(), 12u);
  EXPECT_LT(*windowed_quantile(s, 0.99), 60.0);
  // The pooled figure keeps every window, so the stall shows there.
  EXPECT_EQ(pooled_quantile(s, 0.99), 5000.0);
  // Two modes, half the windows each: the interquartile mean sits
  // between them rather than on whichever the median happens to pick.
  EXPECT_DOUBLE_EQ(interquartile_mean({40, 40, 40, 60, 60, 60}), 50.0);
  EXPECT_DOUBLE_EQ(interquartile_mean({1, 2, 3, 4, 5, 6, 7, 1000}), 4.5);
  EXPECT_EQ(interquartile_mean({}), 0.0);
}

TEST(Overload, GrowingBacklogIsFlagged) {
  EXPECT_FALSE(backlog_grows(4, 6));
  EXPECT_TRUE(backlog_grows(20, 200));
  // Stalls raise the backlog for a moment in every eighth, more in the
  // second half; between them it drains: not growth.
  BacklogTrack stalls;
  for (int i = 0; i < 800; ++i)
    stalls.note(i / 800.0, i % 100 == 50 ? 100 + i : 1);
  EXPECT_FALSE(stalls.grows());
  BacklogTrack linear;
  for (int i = 0; i < 100; ++i) linear.note(i / 100.0, 10 * i);
  EXPECT_TRUE(linear.grows());
  // 1 ms per request offered at 2000/s: the queue grows all run long.
  StubServer slow({.service_us = 1000});
  const PhaseStats over = run_open(slow.port(), ping_templates(), 2000, 0.4);
  EXPECT_TRUE(over.over_capacity()) << over.backlog.part_min[0] << " .. "
                                    << over.backlog.part_min[7];
  StubServer fast({});
  const PhaseStats ok = run_open(fast.port(), ping_templates(), 500, 0.4);
  EXPECT_FALSE(ok.over_capacity());
}

}  // namespace

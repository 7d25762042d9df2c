// offload-small and offload-bulk: an in-process OffloadServer (default
// ServerOptions, ephemeral loopback port) driven over loopback TCP by the
// one-thread LoadGenerator, first at a fixed rate, then saturated.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "offload/dispatch.hpp"
#include "offload/server.hpp"
#include "support/host_threads.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace plfsr;
using namespace plfsr::offload;

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr const char* kWifi = "802.11 (x7+x4+1)";
constexpr const char* kDvb = "DVB (x15+x14+1)";
constexpr std::uint64_t kDvbSeed = 0x4A80;  // DVB randomizer init word
constexpr int kIoTimeoutMs = 2000;
constexpr std::size_t kSequenceLen = 1 << 14;
constexpr std::size_t kSpanRequests = 20000;  // traced requests written out
constexpr double kWarmUpS = 1.0;

WireTemplate make_template(const OffloadDispatcher& d, std::string cls,
                           const Request& req) {
  const Response golden = d.dispatch(req);
  if (golden.status != Status::kOk)
    throw std::runtime_error("perfbench: golden reply for '" + cls +
                             "' fails: " + status_name(golden.status));
  return {std::move(cls), req.op, encode_request(req), encode_response(golden)};
}

Request single(Op op, std::string name, std::uint64_t param,
               std::vector<std::uint8_t> payload) {
  Request r;
  r.op = op;
  r.name = std::move(name);
  r.param = param;
  r.payload = std::move(payload);
  return r;
}

/// 802.11 re-seeds its scrambler for every PPDU: a fresh 7-bit seed.
std::uint64_t wifi_seed(Rng& rng) { return 1 + rng.next_below(127); }

std::size_t small_size(double u) {
  static constexpr std::size_t kSizes[] = {64, 128, 256, 594, 1024, 1518};
  return kSizes[static_cast<std::size_t>(u * std::size(kSizes))];
}

std::size_t bulk_size(double u) {
  return 512 + static_cast<std::size_t>(u * (1600 - 512));
}

struct Kind {
  const char* cls;
  int weight;
  /// Build one template; `u` in [0, 1) is its stratum of the size range.
  WireTemplate (*make)(const OffloadDispatcher&, const char*, Rng&, double u);
};

const std::vector<Kind> kSmallKinds = {
    {"ping/0", 1,
     [](const OffloadDispatcher& d, const char* c, Rng&, double) {
       return make_template(d, c, single(Op::kPing, "", 0, {}));
     }},
    {"ping/64", 1,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double) {
       return make_template(d, c, single(Op::kPing, "", 0, rng.next_bytes(64)));
     }},
    {"crc32", 2,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double u) {
       return make_template(d, c, single(Op::kCrc, "CRC-32/ETHERNET", 0,
                                         rng.next_bytes(small_size(u))));
     }},
    {"crc32c", 1,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double u) {
       return make_template(
           d, c, single(Op::kCrc, "CRC-32C", 0, rng.next_bytes(small_size(u))));
     }},
    {"crc16", 1,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double u) {
       return make_template(d, c, single(Op::kCrc, "CRC-16/CCITT-FALSE", 0,
                                         rng.next_bytes(small_size(u))));
     }},
    {"scramble-802.11", 2,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double u) {
       const std::uint64_t seed = wifi_seed(rng);
       return make_template(d, c, single(Op::kScramble, kWifi, seed,
                                         rng.next_bytes(small_size(u))));
     }},
    {"scramble-dvb", 1,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double u) {
       return make_template(d, c, single(Op::kScramble, kDvb, kDvbSeed,
                                         rng.next_bytes(small_size(u))));
     }},
    {"chain-802.11-crc32", 1,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double u) {
       const std::uint64_t seed = wifi_seed(rng);
       return make_template(
           d, c,
           make_pipeline_request({{Op::kScramble, seed, kWifi},
                                  {Op::kCrc, 0, "CRC-32/ETHERNET"}},
                                 rng.next_bytes(small_size(u))));
     }},
};

const std::vector<Kind> kBulkKinds = {
    {"rs204-encode", 3,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double u) {
       return make_template(d, c, single(Op::kFecEncode, "RS(204,188)", 0,
                                         rng.next_bytes(bulk_size(u))));
     }},
    {"rs204-decode", 2,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double u) {
       // Encode locally, then corrupt one byte per 204-byte block: every
       // block needs a real correction.
       Response code = d.dispatch(single(Op::kFecEncode, "RS(204,188)", 0,
                                         rng.next_bytes(bulk_size(u))));
       for (std::size_t off = 0; off < code.payload.size(); off += 204) {
         const std::size_t len = std::min<std::size_t>(204, code.payload.size() - off);
         code.payload[off + rng.next_below(len)] ^=
             static_cast<std::uint8_t>(1 + rng.next_below(255));
       }
       return make_template(d, c, single(Op::kFecDecode, "RS(204,188)", 0,
                                         std::move(code.payload)));
     }},
    {"bch-encode", 2,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double u) {
       return make_template(d, c, single(Op::kFecEncode, "BCH(255,239,t=2)", 0,
                                         rng.next_bytes(bulk_size(u))));
     }},
    {"chain-dvb-rs204", 2,
     [](const OffloadDispatcher& d, const char* c, Rng& rng, double u) {
       return make_template(
           d, c,
           make_pipeline_request({{Op::kScramble, kDvbSeed, kDvb},
                                  {Op::kFecEncode, 0, "RS(204,188)"}},
                                 rng.next_bytes(bulk_size(u))));
     }},
};

/// The first template of each request class: what set-up must see
/// answered once.
std::vector<std::size_t> class_probes(const OffloadPool& pool) {
  std::vector<std::size_t> probes;
  std::map<std::string, bool> seen;
  for (std::size_t i = 0; i < pool.templates.size(); ++i)
    if (!seen[pool.templates[i].cls]) {
      seen[pool.templates[i].cls] = true;
      probes.push_back(i);
    }
  return probes;
}

/// Read one reply and compare it with the golden.
bool read_verified(Socket& s, const WireTemplate& t) {
  std::vector<std::uint8_t> got(kLenBytes);
  if (read_full(s.fd(), got.data(), kLenBytes, kIoTimeoutMs) != IoResult::kOk)
    return false;
  const std::size_t blen = got[0] | (got[1] << 8) | (got[2] << 16) |
                           (static_cast<std::size_t>(got[3]) << 24);
  if (kLenBytes + blen > t.resp.size() + 64) return false;
  got.resize(kLenBytes + blen);
  if (read_full(s.fd(), got.data() + kLenBytes, blen, kIoTimeoutMs) !=
      IoResult::kOk)
    return false;
  return got == t.resp;
}

/// One blocking request/reply round trip, verified against the golden.
bool round_trip(Socket& s, const WireTemplate& t) {
  return write_full(s.fd(), t.req.data(), t.req.size(), kIoTimeoutMs) ==
             IoResult::kOk &&
         read_verified(s, t);
}

Socket connect_to(std::uint16_t port) {
  Socket s = connect_tcp(kHost, port, kIoTimeoutMs);
  if (s.valid()) set_nodelay(s.fd(), true);
  return s;
}

/// Construct and start a server, then get one verified reply for every
/// request class (so first-use engine and codec construction counts).
/// Returns the seconds that took. Each probe is an operation of `r`; a
/// retried one failed.
double setup_server(const OffloadPool& pool,
                    const std::vector<std::size_t>& probes,
                    std::unique_ptr<OffloadServer>& server, RunResult& r) {
  const std::int64_t t0 = now_ns();
  server = std::make_unique<OffloadServer>(ServerOptions{});
  if (!server->start()) throw std::runtime_error("perfbench: server start");
  Socket s = connect_to(server->port());
  for (const std::size_t idx : probes) {
    bool ok = false;
    for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
      ++r.attempted;
      ok = s.valid() && round_trip(s, pool.templates[idx]);
      if (!ok) {
        ++r.failed;
        r.correct = false;
        r.notes.push_back("set-up probe '" + pool.templates[idx].cls +
                          "' failed");
        s = connect_to(server->port());
      }
    }
    if (!ok)
      throw std::runtime_error("perfbench: set-up probe '" +
                               pool.templates[idx].cls + "' keeps failing");
  }
  return (now_ns() - t0) * 1e-9;
}

/// The server's multi-read body path, probed on its own: a 64 KiB
/// CRC-32C request whose body arrives in two writes 2 ms apart, each
/// time on a fresh connection. Returns the share answered wrongly. (The
/// workloads keep every request within one loopback segment, so their
/// operations never depend on this path.)
double split_body_fail_frac(std::uint16_t port, int attempts) {
  const OffloadDispatcher d;
  const WireTemplate t = make_template(
      d, "crc32c/65536",
      single(Op::kCrc, "CRC-32C", 0, Rng(65536).next_bytes(65536)));
  const std::size_t cut = kLenBytes + 16 * 1024;
  int bad = 0;
  for (int i = 0; i < attempts; ++i) {
    Socket s = connect_to(port);
    bool ok = s.valid() && write_full(s.fd(), t.req.data(), cut,
                                      kIoTimeoutMs) == IoResult::kOk;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ok = ok &&
         write_full(s.fd(), t.req.data() + cut, t.req.size() - cut,
                    kIoTimeoutMs) == IoResult::kOk &&
         read_verified(s, t);
    bad += !ok;
  }
  return static_cast<double>(bad) / attempts;
}

/// Median round trip of a lone ping/0 on the otherwise idle server.
double ping0_rtt_us(std::uint16_t port) {
  const OffloadDispatcher d;
  const WireTemplate ping = make_template(d, "ping/0", single(Op::kPing, "", 0, {}));
  Socket s = connect_to(port);
  std::vector<double> rtt;
  for (int i = 0; i < 1000 && s.valid(); ++i) {
    const std::int64_t t0 = now_ns();
    if (!round_trip(s, ping)) throw std::runtime_error("perfbench: ping/0");
    rtt.push_back((now_ns() - t0) * 1e-3);
  }
  return median(rtt);
}

/// The saturation phase, in kSliceS slices on the same connections:
/// counters summed over the slices, rates kept per slice.
struct Saturation {
  PhaseStats st;
  double cpu_s = 0;
  std::uint64_t ctx = 0;
  std::vector<double> slice_fps, slice_cpu_us;
};

/// `between` runs untimed before each slice.
Saturation saturate(LoadGenerator& gen, double seconds,
                    const std::function<void()>& between = {}) {
  Saturation s;
  const std::size_t slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kSliceS));
  for (std::size_t k = 0; k < slices; ++k) {
    if (between) between();
    const double cpu0 = process_cpu_s();
    const std::uint64_t ctx0 = context_switches();
    const PhaseStats part =
        gen.run({.open_loop = false, .depth = kDepth, .seconds = kSliceS});
    const double cpu = process_cpu_s() - cpu0;
    s.cpu_s += cpu;
    s.ctx += context_switches() - ctx0;
    s.slice_fps.push_back(part.wall_s > 0 ? part.verified / part.wall_s : 0);
    s.slice_cpu_us.push_back(part.verified ? 1e6 * cpu / part.verified : 0);
    accumulate(s.st, part);
  }
  return s;
}

/// Add a phase's operations to the run. Any failed one (mismatch, error
/// reply, timeout, I/O error) makes the run incorrect.
void tally(RunResult& r, const PhaseStats& st) {
  r.attempted += st.attempted;
  r.failed += st.failed;
  if (st.failed == 0) return;
  r.correct = false;
  r.notes.push_back("failures: " + std::to_string(st.failed) + " (" +
                    std::to_string(st.error_replies) + " error replies, " +
                    std::to_string(st.mismatches) + " mismatches, " +
                    std::to_string(st.timeouts) + " timeouts, " +
                    std::to_string(st.io_errors) + " I/O errors; " +
                    std::to_string(st.reconnects) + " reconnects)");
}

const char* op_key(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kCrc: return "crc";
    case Op::kScramble: return "scramble";
    case Op::kFecEncode: return "fec_encode";
    case Op::kFecDecode: return "fec_decode";
    case Op::kPipeline: return "pipeline";
  }
  return "unknown";
}

/// Per-layer metrics of the traced phases plus the replay.
void add_traced_layers(RunResult& r, const OffloadPool& pool,
                       const PhaseStats& fixed, const Saturation& sat,
                       const Replay& replay) {
  std::vector<double> lag = fixed.lag_us;
  r.add("gen.lag_p99_us", quantile(lag, 0.99).value_or(0), "us");
  r.add("gen.backlog_max", static_cast<double>(fixed.backlog_max), "count");
  r.add("gen.cpu_frac", fixed.wall_s > 0 ? fixed.gen_cpu_s / fixed.wall_s : 0,
        "ratio");
  r.add("gen.over_capacity", fixed.over_capacity() ? 1 : 0, "flag");

  std::vector<double> send, wait, recv, overhead, self;
  std::map<std::string, std::vector<double>> exec;
  for (const ReqTrace& t : fixed.traces) {
    if (!t.ok) continue;
    const double e = replay.execute_us[t.tmpl];
    send.push_back((t.send1 - t.send0) * 1e-3);
    wait.push_back((t.first - t.send1) * 1e-3);
    recv.push_back((t.done - t.first) * 1e-3);
    overhead.push_back((t.first - t.send1) * 1e-3 - e);
    self.push_back(e - replay.kernel_us[t.tmpl]);
    exec[op_key(pool.templates[t.tmpl].op)].push_back(e);
  }
  r.add("net.send_us", median(send), "us");
  r.add("net.wait_us", median(wait), "us");
  r.add("net.recv_us", median(recv), "us");
  r.add("server.overhead_us", median(overhead), "us");
  r.add("server.ctx_switches_per_frame",
        sat.st.verified ? static_cast<double>(sat.ctx) / sat.st.verified : 0,
        "count");
  r.add("protocol.decode_ns", replay.decode_ns, "ns");
  r.add("protocol.encode_ns", replay.encode_ns, "ns");
  for (const auto& [op, v] : exec)
    r.add(std::string("dispatch.execute_us.") + op, median(v), "us");
  r.add("dispatch.self_us", median(self), "us");
  r.add("proc.cpu_util",
        sat.st.wall_s > 0 ? sat.cpu_s / sat.st.wall_s / host_threads() : 0,
        "ratio");
}

/// Request spans of the traced fixed-rate phase: `req` and its five
/// children per request. Returns the largest |req - sum(children)| and
/// the share of requests reconciled within kReconcileUs.
constexpr double kReconcileUs = 1.0;

std::pair<double, double> spans_of(const PhaseStats& fixed, SpanLog& log) {
  double worst = 0;
  std::uint64_t ok = 0, n = 0;
  const std::size_t stride =
      std::max<std::size_t>(1, fixed.traces.size() / kSpanRequests);
  for (std::size_t i = 0; i < fixed.traces.size(); ++i) {
    const ReqTrace& t = fixed.traces[i];
    if (!t.ok) continue;
    const std::int64_t children = (t.send0 - t.due) + (t.send1 - t.send0) +
                                  (t.first - t.send1) + (t.done - t.first) +
                                  (t.verified - t.done);
    const double resid = std::abs((t.verified - t.due) - children) * 1e-3;
    worst = std::max(worst, resid);
    ++n;
    ok += resid <= kReconcileUs;
    if (i % stride != 0) continue;
    log.spans.push_back({i, "req", "", t.due, t.verified});
    log.spans.push_back({i, "req.queue", "req", t.due, t.send0});
    log.spans.push_back({i, "req.send", "req", t.send0, t.send1});
    log.spans.push_back({i, "req.wait", "req", t.send1, t.first});
    log.spans.push_back({i, "req.recv", "req", t.first, t.done});
    log.spans.push_back({i, "req.verify", "req", t.done, t.verified});
  }
  return {worst, n ? static_cast<double>(ok) / n : 0};
}

}  // namespace

OffloadPool make_offload_pool(const std::string& workload, std::uint64_t seed,
                              const OffloadDispatcher& golden) {
  const bool small = workload == "offload-small";
  if (!small && workload != "offload-bulk")
    throw std::invalid_argument("perfbench: unknown offload workload '" +
                                workload + "'");
  const std::vector<Kind>& kinds = small ? kSmallKinds : kBulkKinds;
  // Templates per unit of weight: a multiple of the six small sizes, so
  // every seed gets the same op mix and the same size mix.
  const int per_weight = small ? 6 : 4;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + (small ? 1 : 2));
  OffloadPool pool;
  for (const Kind& k : kinds) {
    const int n = k.weight * per_weight;
    for (int j = 0; j < n; ++j) {
      // Stratified: template j takes a random point of the j-th slice.
      const double u = (j + static_cast<double>(rng.next_below(1 << 20)) /
                                (1 << 20)) / n;
      pool.templates.push_back(k.make(golden, k.cls, rng, u));
    }
  }
  // Each template equally often per cycle, in a seeded order.
  pool.sequence.resize(kSequenceLen);
  for (std::size_t i = 0; i < kSequenceLen; ++i)
    pool.sequence[i] = static_cast<std::uint32_t>(i % pool.templates.size());
  for (std::size_t i = kSequenceLen - 1; i > 0; --i)
    std::swap(pool.sequence[i], pool.sequence[rng.next_below(i + 1)]);
  return pool;
}

RunResult run_offload(const WorkloadConfig& cfg) {
  RunResult r;
  add_host_fingerprint(r);
  const OffloadDispatcher golden;
  const OffloadPool pool = make_offload_pool(cfg.name, cfg.seed, golden);
  const std::vector<std::size_t> probes = class_probes(pool);

  // The server every phase runs against; its set-up is timed too.
  std::vector<double> setups;
  std::unique_ptr<OffloadServer> server;
  setups.push_back(setup_server(pool, probes, server, r));
  const std::uint16_t port = server->port();
  const std::function<void()> setup_round = [&] {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      std::unique_ptr<OffloadServer> s;
      setups.push_back(setup_server(pool, probes, s, r));
    }  // tear-down is not set-up
  };

  const auto generator = [&] {
    auto g = std::make_unique<LoadGenerator>(kHost, port, kConnections,
                                             pool.templates, pool.sequence,
                                             kIoTimeoutMs);
    if (!g->connect()) throw std::runtime_error("perfbench: connect");
    return g;
  };
  const PhaseSpec fixed_spec{.open_loop = true, .rate_per_s = cfg.rate};
  // Unmeasured closed-loop traffic first: every worker builds its
  // per-thread engines and chain caches, the arenas fill their classes
  // and the socket buffers grow before any phase is timed.
  const auto warm_up = [&](LoadGenerator& g) {
    tally(r, g.run({.open_loop = false, .depth = kDepth, .seconds = kWarmUpS}));
  };

  if (!cfg.trace) {
    setup_round();
    auto gen = generator();
    warm_up(*gen);
    setup_round();
    PhaseSpec spec = fixed_spec;
    spec.seconds = cfg.seconds * kFixedShare;
    PhaseStats fixed = gen->run(spec);
    const Saturation sat =
        saturate(*gen, cfg.seconds * (1 - kFixedShare), setup_round);
    setup_round();
    tally(r, fixed);
    tally(r, sat.st);
    r.add("throughput_fps", interquartile_mean(sat.slice_fps), "frames/s");
    r.notes.push_back("saturation slices, frames/s: " + spread_note(sat.slice_fps));
    for (const double q : {0.5, 0.9, 0.99})
      r.notes.push_back("fixed-rate windows, p" + std::to_string(int(q * 100)) +
                        " us: " + spread_note(window_quantiles(fixed.latency, q)));
    r.add("latency_p50_us", need_quantile(fixed.latency, 0.5, "p50"), "us");
    r.add("latency_p90_us", need_quantile(fixed.latency, 0.9, "p90"), "us");
    r.add("cpu_us_per_frame", interquartile_mean(sat.slice_cpu_us), "us");
    r.add("peak_rss_MB", peak_rss_mb(), "MB");
    r.add("setup_s", median(setups), "s");
    r.notes.push_back("set-ups, s: " + spread_note(setups));
    r.notes.push_back(
        "fixed-rate phase: offered " + std::to_string(cfg.rate) +
        " req/s, verified " + std::to_string(fixed.verified) +
        (fixed.over_capacity() ? ", OVER CAPACITY (backlog grows)" : ""));
    r.notes.push_back("saturation phase: " + std::to_string(sat.st.verified) +
                      " verified in " + std::to_string(sat.st.wall_s) + " s");
    return r;
  }

  // Traced run: an untraced pair of phases, then a traced pair, then
  // the layer replay. Their difference is the tracing overhead.
  r.add("net.ping0_rtt_us", ping0_rtt_us(port), "us");
  r.add("server.split_body_fail_frac", split_body_fail_frac(port, 8), "ratio");
  auto gen_u = generator();
  warm_up(*gen_u);
  PhaseSpec spec = fixed_spec;
  spec.seconds = cfg.seconds * 0.2;
  PhaseStats fixed_u = gen_u->run(spec);
  const Saturation sat_u = saturate(*gen_u, cfg.seconds * 0.2);
  gen_u.reset();

  const std::uint64_t err0 = server->error_replies();
  auto gen_t = generator();
  spec.seconds = cfg.seconds * 0.3;
  spec.trace = true;
  PhaseStats fixed_t = gen_t->run(spec);
  const ArenaSnap req0(server->request_arena());
  const ArenaSnap rep0(server->dispatcher().reply_arena());
  const Saturation sat_t = saturate(*gen_t, cfg.seconds * 0.3);
  const ArenaSnap req1(server->request_arena());
  const ArenaSnap rep1(server->dispatcher().reply_arena());
  for (const PhaseStats* st :
       {&std::as_const(fixed_u), &sat_u.st, &std::as_const(fixed_t), &sat_t.st})
    tally(r, *st);

  const Replay replay = replay_templates(pool.templates);
  add_traced_layers(r, pool, fixed_t, sat_t, replay);
  r.add("server.error_replies",
        static_cast<double>(server->error_replies() - err0), "count");
  r.add("server.reconnects",
        static_cast<double>(fixed_t.reconnects + sat_t.st.reconnects), "count");
  add_arena_delta(r, "frame_arena.server_request", req0, req1,
                  sat_t.st.verified);
  add_arena_delta(r, "frame_arena.server_reply", rep0, rep1, sat_t.st.verified);
  add_kernel_metrics(r);

  const double lat_u = need_quantile(fixed_u.latency, 0.5, "p50");
  // The tail beyond the bounded p90: one few-millisecond stall of the host
  // in a window sets its p99, so it is recorded here, unbounded.
  r.add("latency_p99_us", windowed_quantile(fixed_u.latency, 0.99).value_or(0),
        "us");
  r.add("latency_p90_pooled_us", pooled_quantile(fixed_u.latency, 0.9), "us");
  r.add("trace.overhead_fps_frac",
        1.0 - interquartile_mean(sat_t.slice_fps) / interquartile_mean(sat_u.slice_fps), "ratio");
  r.add("trace.overhead_p50_frac",
        need_quantile(fixed_t.latency, 0.5, "p50") / lat_u - 1.0, "ratio");
  SpanLog log;
  const auto [worst, reconciled] = spans_of(fixed_t, log);
  r.add("trace.residual_max_us", worst, "us");
  r.add("trace.reconciled_frac", reconciled, "ratio");
  if (!cfg.trace_dir.empty()) {
    const std::string path = cfg.trace_dir + "/" + cfg.name + "-seed" +
                             std::to_string(cfg.seed) + ".spans.csv";
    if (!log.save(path)) throw std::runtime_error("perfbench: write " + path);
    r.notes.push_back("spans: " + std::to_string(log.spans.size()) + " -> " +
                      path);
  }
  return r;
}

}  // namespace perfbench

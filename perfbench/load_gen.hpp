// The offload workloads' load generator: one thread driving N
// nonblocking connections to an offload server, in one of two phases.
//
//  - Open loop (fixed rate): request i is *due* at t0 + i / rate and is
//    sent then, whatever the replies are doing. Its latency runs from the
//    due time, so a stall also charges every request scheduled behind it
//    (no coordinated omission). Requests go round-robin over the
//    connections.
//  - Closed loop (saturation): each connection keeps `depth` requests in
//    flight and sends the next one as soon as a reply completes.
//
// Every reply is compared byte for byte with its golden wire reply. A
// mismatch, an error reply or a timeout fails that one request; the
// connection is then closed and reopened and its later requests are sent
// again on the new one, so a desynchronised stream costs one operation,
// not the run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "offload/net.hpp"
#include "offload/protocol.hpp"

namespace perfbench {

/// One distinct request of a workload with its golden reply.
struct WireTemplate {
  std::string cls;                 ///< request class, e.g. "crc32c/65536"
  plfsr::offload::Op op = plfsr::offload::Op::kPing;
  std::vector<std::uint8_t> req;   ///< full wire request (prefix included)
  std::vector<std::uint8_t> resp;  ///< golden full wire reply
};

struct PhaseSpec {
  bool open_loop = true;
  double rate_per_s = 1000;  ///< open loop: requests per second
  std::size_t depth = 1;     ///< closed loop: in flight per connection
  double seconds = 1;
  bool trace = false;        ///< keep per-request span timestamps
};

/// Span timestamps of one request, ns since the phase start. The child
/// spans req.queue = [due, send0], req.send = [send0, send1], req.wait =
/// [send1, first], req.recv = [first, done] and req.verify = [done,
/// verified] tile req = [due, verified].
struct ReqTrace {
  std::uint32_t tmpl = 0;
  bool ok = false;
  std::int64_t due = 0, send0 = 0, send1 = 0, first = 0, done = 0,
               verified = 0;
};

/// Lowest backlog in each eighth of an open-loop phase (by due time).
/// Host stalls of a few milliseconds raise the backlog for a moment, and
/// every eighth holds some, so its peaks follow the stalls; between them
/// the backlog drains to its floor, which only an overload raises.
struct BacklogTrack {
  static constexpr std::size_t kParts = 8;
  static constexpr std::size_t kNone = ~std::size_t{0};  ///< no sample
  std::array<std::size_t, kParts> part_min = filled(kNone);

  /// Record `backlog` outstanding at `frac` (0 = start, 1 = end) of the
  /// phase.
  void note(double frac, std::size_t backlog);
  /// The backlog grows through the phase: the median floor of the last
  /// four eighths exceeds that of the first four (backlog_grows). An
  /// eighth without a sample counts as an empty backlog.
  bool grows() const;

 private:
  static std::array<std::size_t, kParts> filled(std::size_t v) {
    std::array<std::size_t, kParts> a;
    a.fill(v);
    return a;
  }
};

struct PhaseStats {
  std::uint64_t attempted = 0, verified = 0, failed = 0;
  std::uint64_t mismatches = 0, error_replies = 0, timeouts = 0,
                io_errors = 0, reconnects = 0;
  LatencySamples latency;  ///< open loop, verified: due -> verified
  std::vector<double> lag_us;      ///< open loop: first send - due
  std::size_t backlog_max = 0;     ///< peak requests outstanding
  BacklogTrack backlog;            ///< open loop: floor per eighth
  double wall_s = 0;    ///< phase start -> last reply
  double gen_cpu_s = 0; ///< generator thread CPU over the phase
  std::vector<ReqTrace> traces;

  /// A backlog that keeps growing through an open-loop phase means the
  /// offered rate is above capacity: latency then measures queueing.
  bool over_capacity() const;
};

class LoadGenerator {
 public:
  /// `sequence` lists template indices in send order (cycled).
  LoadGenerator(std::string host, std::uint16_t port, std::size_t connections,
                const std::vector<WireTemplate>& templates,
                std::vector<std::uint32_t> sequence, int timeout_ms = 2000);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Open every connection; false if one cannot connect.
  bool connect();

  /// Run one phase to completion (issue for spec.seconds, then drain).
  PhaseStats run(const PhaseSpec& spec);

 private:
  struct Conn;

  /// (Re)open `c`'s socket: connected, TCP_NODELAY, nonblocking.
  bool open(Conn& c);

  std::string host_;
  std::uint16_t port_;
  const std::vector<WireTemplate>& tmpl_;
  std::vector<std::uint32_t> seq_;
  std::size_t cursor_ = 0;  // position in seq_, kept across phases
  int timeout_ms_;
  std::vector<Conn> conns_;
};

/// Add `part`'s counts, wall time and generator CPU into `total`.
void accumulate(PhaseStats& total, const PhaseStats& part);

/// Overload-detection rule shared with the tests: the second half's
/// backlog exceeds the first half's by half again (with a small floor).
bool backlog_grows(std::size_t first_half, std::size_t second_half);

}  // namespace perfbench

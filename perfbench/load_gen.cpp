#include "load_gen.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>

#include "bench_util.hpp"

namespace perfbench {

using namespace plfsr::offload;

namespace {

constexpr std::size_t kMaxIov = 16;
constexpr std::size_t kReadChunk = 1 << 16;
// Closed-loop and drain waits have no schedule to meet; this only bounds
// how late a timeout is noticed.
constexpr std::int64_t kIdleWaitNs = 5'000'000;
// Waits shorter than this are spun, not slept: a sleep overshoots them.
constexpr std::int64_t kSpinNs = 20'000;

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

bool backlog_grows(std::size_t first_half, std::size_t second_half) {
  // Linear growth more than doubles the backlog from one half to the
  // next; a steady queue keeps it level.
  return second_half > first_half + std::max<std::size_t>(first_half / 2, 8);
}

void BacklogTrack::note(double frac, std::size_t backlog) {
  const auto part = static_cast<std::size_t>(
      std::clamp(frac, 0.0, 1.0) * static_cast<double>(kParts));
  std::size_t& m = part_min[std::min(part, kParts - 1)];
  m = std::min(m, backlog);
}

bool BacklogTrack::grows() const {
  const auto half_median = [&](std::size_t first) {
    std::array<std::size_t, kParts / 2> h;
    for (std::size_t i = 0; i < h.size(); ++i)
      h[i] = part_min[first + i] == kNone ? 0 : part_min[first + i];
    std::sort(h.begin(), h.end());
    return (h[h.size() / 2 - 1] + h[h.size() / 2]) / 2;
  };
  return backlog_grows(half_median(0), half_median(kParts / 2));
}

bool PhaseStats::over_capacity() const { return backlog.grows(); }

void accumulate(PhaseStats& total, const PhaseStats& part) {
  total.attempted += part.attempted;
  total.verified += part.verified;
  total.failed += part.failed;
  total.mismatches += part.mismatches;
  total.error_replies += part.error_replies;
  total.timeouts += part.timeouts;
  total.io_errors += part.io_errors;
  total.reconnects += part.reconnects;
  total.wall_s += part.wall_s;
  total.gen_cpu_s += part.gen_cpu_s;
}

struct LoadGenerator::Conn {
  struct Pending {
    std::uint32_t tmpl = 0;
    std::int64_t due = 0;  // absolute ns
    std::int64_t send0 = -1, send1 = -1, first = -1;
    std::size_t sent = 0;  // request bytes written so far
  };
  Socket sock;
  std::deque<Pending> pending;  // sent or queued, reply outstanding
  std::size_t unsent = 0;       // first pending not fully written
  std::vector<std::uint8_t> in;
  std::size_t in_len = 0;
  std::int64_t last_progress = 0;
};

LoadGenerator::LoadGenerator(std::string host, std::uint16_t port,
                             std::size_t connections,
                             const std::vector<WireTemplate>& templates,
                             std::vector<std::uint32_t> sequence,
                             int timeout_ms)
    : host_(std::move(host)),
      port_(port),
      tmpl_(templates),
      seq_(std::move(sequence)),
      timeout_ms_(timeout_ms),
      conns_(connections) {}

LoadGenerator::~LoadGenerator() = default;

bool LoadGenerator::open(Conn& c) {
  c.sock = connect_tcp(host_, port_, timeout_ms_);
  if (!c.sock.valid()) return false;
  set_nodelay(c.sock.fd(), true);
  set_nonblocking(c.sock.fd(), true);
  return true;
}

bool LoadGenerator::connect() {
  for (Conn& c : conns_)
    if (!open(c)) return false;
  return true;
}

PhaseStats LoadGenerator::run(const PhaseSpec& spec) {
  PhaseStats st;
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // precise ppoll wake-ups
  const std::size_t n = conns_.size();
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(spec.seconds * 1e9);
  const std::int64_t timeout_ns = std::int64_t{timeout_ms_} * 1'000'000;
  const std::int64_t drain_deadline = end + 2 * timeout_ns;
  const double interval_ns = 1e9 / spec.rate_per_s;
  const double cpu0 = thread_cpu_s();
  std::size_t outstanding = 0;
  std::int64_t last_done = t0;
  if (spec.open_loop) {  // no reallocation mid-phase
    const auto expect = static_cast<std::size_t>(spec.rate_per_s * spec.seconds) + 64;
    st.latency.due_s.reserve(expect);
    st.latency.us.reserve(expect);
    st.lag_us.reserve(expect);
    if (spec.trace) st.traces.reserve(expect);
  }

  const auto complete = [&](const Conn::Pending& p, std::int64_t done,
                            std::int64_t verified, bool ok) {
    --outstanding;
    ++st.attempted;
    if (ok) {
      ++st.verified;
      if (spec.open_loop)
        st.latency.add((p.due - t0) * 1e-9, (verified - p.due) * 1e-3);
    } else {
      ++st.failed;
    }
    if (spec.trace) {
      ReqTrace t;
      t.tmpl = p.tmpl;
      t.ok = ok;
      t.due = p.due - t0;
      t.send0 = std::max(p.send0, p.due) - t0;
      t.send1 = std::max(p.send1, p.send0) - t0;
      t.first = std::max(p.first, p.send1) - t0;
      t.done = std::max(done, p.first) - t0;
      t.verified = verified - t0;
      st.traces.push_back(t);
    }
    last_done = std::max(last_done, verified);
  };

  // Write as much of the queued requests as the socket takes (gather
  // write straight from the templates). False on a hard error.
  const auto flush = [&](Conn& c) -> bool {
    while (c.sock.valid() && c.unsent < c.pending.size()) {
      iovec iov[kMaxIov];
      std::size_t k = 0;
      for (std::size_t i = c.unsent; i < c.pending.size() && k < kMaxIov;
           ++i, ++k) {
        const Conn::Pending& p = c.pending[i];
        const std::vector<std::uint8_t>& req = tmpl_[p.tmpl].req;
        iov[k].iov_base = const_cast<std::uint8_t*>(req.data()) + p.sent;
        iov[k].iov_len = req.size() - p.sent;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = k;
      const std::int64_t t_call = now_ns();
      ssize_t w = ::sendmsg(c.sock.fd(), &msg, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      const std::int64_t t_ret = now_ns();
      c.last_progress = t_ret;
      for (std::size_t i = c.unsent; w > 0; ++i) {
        Conn::Pending& p = c.pending[i];
        const std::size_t size = tmpl_[p.tmpl].req.size();
        const std::size_t take =
            std::min<std::size_t>(static_cast<std::size_t>(w), size - p.sent);
        if (p.send0 < 0) p.send0 = t_call;
        p.sent += take;
        w -= static_cast<ssize_t>(take);
        if (p.sent == size) {
          p.send1 = t_ret;
          ++c.unsent;
        }
      }
    }
    return true;
  };

  // Fail the connection's oldest request, reopen the connection and
  // resend the rest on the new one.
  const auto fail_and_reconnect = [&](Conn& c, std::int64_t now) {
    if (!c.pending.empty()) {
      complete(c.pending.front(), now, now, false);
      c.pending.pop_front();
    }
    c.sock.reset();
    ++st.reconnects;
    c.in_len = 0;
    c.unsent = 0;
    c.last_progress = now;
    for (Conn::Pending& p : c.pending) {
      p.sent = 0;
      p.send0 = p.send1 = p.first = -1;
    }
    if (!open(c)) {
      ++st.io_errors;
      while (!c.pending.empty()) {
        complete(c.pending.front(), now, now, false);
        c.pending.pop_front();
      }
      return;
    }
    if (!flush(c)) ++st.io_errors;
  };

  const auto issue = [&](Conn& c, std::int64_t due, std::int64_t now) {
    if (!c.sock.valid() && !open(c)) {
      ++st.io_errors;
      ++outstanding;
      complete(Conn::Pending{seq_[cursor_], due}, now, now, false);
      cursor_ = (cursor_ + 1) % seq_.size();
      return;
    }
    if (c.pending.empty()) c.last_progress = now;
    c.pending.push_back({seq_[cursor_], due});
    cursor_ = (cursor_ + 1) % seq_.size();
    ++outstanding;
    st.backlog_max = std::max(st.backlog_max, outstanding);
    st.backlog.note(static_cast<double>(due - t0) / (end - t0), outstanding);
  };

  // Read what arrived and retire every complete reply. Returns after a
  // failure has reconnected the connection.
  const auto read_replies = [&](Conn& c, std::size_t depth, bool issuing) {
    for (;;) {
      if (c.in.size() < c.in_len + kReadChunk)
        c.in.resize(c.in_len + kReadChunk);
      const ssize_t r =
          ::recv(c.sock.fd(), c.in.data() + c.in_len, c.in.size() - c.in_len,
                 0);
      const std::int64_t t_read = now_ns();
      if (r == 0 || (r < 0 && errno != EINTR && errno != EAGAIN &&
                     errno != EWOULDBLOCK)) {
        ++st.io_errors;
        fail_and_reconnect(c, t_read);
        return;
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        return;  // drained
      }
      c.in_len += static_cast<std::size_t>(r);
      c.last_progress = t_read;
      if (!c.pending.empty() && c.pending.front().first < 0)
        c.pending.front().first = t_read;
      std::size_t off = 0;
      while (!c.pending.empty() && c.in_len - off >= kLenBytes) {
        const Conn::Pending& p = c.pending.front();
        const std::vector<std::uint8_t>& want = tmpl_[p.tmpl].resp;
        const std::size_t total = kLenBytes + read_le32(c.in.data() + off);
        const bool plausible = total <= want.size() || total <= 64;
        if (plausible && c.in_len - off < total) break;  // reply incomplete
        const bool ok = total == want.size() &&
                        std::memcmp(c.in.data() + off, want.data(),
                                    want.size()) == 0;
        const std::int64_t t_verified = now_ns();
        if (!ok) {
          const bool error_reply = plausible && total > kLenBytes &&
                                   c.in[off + kLenBytes] !=
                                       static_cast<std::uint8_t>(Status::kOk);
          ++(error_reply ? st.error_replies : st.mismatches);
          fail_and_reconnect(c, t_verified);
          return;
        }
        complete(p, t_read, t_verified, true);
        c.pending.pop_front();
        if (c.unsent > 0) --c.unsent;
        off += total;
        if (!c.pending.empty() && c.in_len > off)
          c.pending.front().first = t_read;
      }
      if (off > 0) {
        std::memmove(c.in.data(), c.in.data() + off, c.in_len - off);
        c.in_len -= off;
      }
      if (!spec.open_loop && issuing) {
        while (c.pending.size() < depth) issue(c, t_read, t_read);
        if (!flush(c)) {
          ++st.io_errors;
          fail_and_reconnect(c, now_ns());
          return;
        }
      }
    }
  };

  std::int64_t now = now_ns();
  std::uint64_t issued = 0;
  std::size_t rr = 0;
  std::int64_t next_due = t0;
  bool issuing = true;
  if (!spec.open_loop) {
    for (Conn& c : conns_) {
      for (std::size_t d = 0; d < spec.depth; ++d) issue(c, now, now);
      flush(c);
    }
  }
  std::vector<pollfd> pfds(n);
  for (;;) {
    now = now_ns();
    if (issuing && spec.open_loop) {
      std::size_t first_rr = rr, touched = 0;
      while (next_due <= now && next_due < end) {
        issue(conns_[rr], next_due, now);
        st.lag_us.push_back((now - next_due) * 1e-3);
        rr = (rr + 1) % n;
        ++touched;
        ++issued;
        next_due = t0 + static_cast<std::int64_t>(
                            static_cast<double>(issued) * interval_ns);
      }
      for (std::size_t i = 0; i < std::min(touched, n); ++i) {
        Conn& c = conns_[(first_rr + i) % n];
        if (!flush(c)) {
          ++st.io_errors;
          fail_and_reconnect(c, now);
        }
      }
    }
    if (issuing && (now >= end || (spec.open_loop && next_due >= end)))
      issuing = false;
    if (!issuing && outstanding == 0) break;
    if (!issuing && now > drain_deadline) {
      for (Conn& c : conns_)
        while (!c.pending.empty()) {
          ++st.timeouts;
          complete(c.pending.front(), now, now, false);
          c.pending.pop_front();
        }
      break;
    }

    for (std::size_t i = 0; i < n; ++i) {
      const Conn& c = conns_[i];
      short ev = 0;
      if (!c.pending.empty()) ev |= POLLIN;
      if (c.unsent < c.pending.size()) ev |= POLLOUT;
      pfds[i] = {c.sock.valid() && ev ? c.sock.fd() : -1, ev, 0};
    }
    std::int64_t wait =
        issuing && spec.open_loop ? next_due - now : kIdleWaitNs;
    if (wait < kSpinNs) wait = 0;
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    const int rc = ::ppoll(pfds.data(), n, &ts, nullptr);
    if (rc < 0 && errno != EINTR) {
      ++st.io_errors;
      break;
    }
    now = now_ns();
    for (std::size_t i = 0; rc > 0 && i < n; ++i) {
      Conn& c = conns_[i];
      const short re = pfds[i].revents;
      if (re == 0 || pfds[i].fd < 0) continue;
      if ((re & POLLOUT) && !flush(c)) {
        ++st.io_errors;
        fail_and_reconnect(c, now);
        continue;
      }
      if (re & (POLLIN | POLLHUP | POLLERR))
        read_replies(c, spec.depth, issuing && now < end);
    }
    now = now_ns();
    for (Conn& c : conns_) {
      if (!c.pending.empty() && now - c.last_progress > timeout_ns) {
        ++st.timeouts;
        fail_and_reconnect(c, now);
      }
    }
  }
  st.wall_s = (last_done - t0) * 1e-9;
  st.gen_cpu_s = thread_cpu_s() - cpu0;
  return st;
}

}  // namespace perfbench

// Shared plumbing of the benchmark: clocks, CPU accounting, tail-aware
// percentiles and the named-metric record every workload fills.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (one epoch for every timestamp a
/// phase records).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double cputime_s(clockid_t which) {
  timespec ts{};
  clock_gettime(which, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}
/// CPU seconds of the whole process (every thread, server included).
inline double process_cpu_s() { return cputime_s(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU seconds of the calling thread.
inline double thread_cpu_s() { return cputime_s(CLOCK_THREAD_CPUTIME_ID); }

/// Voluntary + involuntary context switches of the process so far.
inline std::uint64_t context_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

/// Peak resident set of the process, MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank quantile `q` of `v` (sorted in place), or nullopt when
/// fewer than kTailSamples samples lie strictly beyond the rank.
inline std::optional<double> quantile(std::vector<double>& v, double q) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (v.size() - 1 - idx < kTailSamples) return std::nullopt;
  return v[idx];
}

/// Median for summary use (no tail requirement); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the middle half of `v` (the interquartile mean); 0 when empty.
/// Like the median, a minority of disturbed windows or slices cannot move
/// it. Unlike the median, it moves smoothly when the figures fall into two
/// modes (as they do when pipeline instances get different thread
/// placements), where the median jumps from one mode to the other.
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// "min / median / max of n" of per-slice figures, for the notes.
inline std::string spread_note(const std::vector<double>& v) {
  if (v.empty()) return "none";
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return std::to_string(*lo) + " / " + std::to_string(median(v)) + " / " +
         std::to_string(*hi) + " of " + std::to_string(v.size());
}

/// Latency samples, each tagged with when its operation was due.
struct LatencySamples {
  std::vector<double> due_s;  ///< seconds since the phase start
  std::vector<double> us;
  void add(double due, double latency_us) {
    due_s.push_back(due);
    us.push_back(latency_us);
  }
};

/// Window over which latency percentiles are taken. Short, so that the
/// few-millisecond stalls a shared host causes now and then land in a
/// minority of windows, which the interquartile mean over windows drops.
inline constexpr double kWindowS = 0.25;

/// Length of one slice: throughput and CPU per frame are taken per
/// saturation slice, and the pipeline workload runs each slice (of either
/// phase) on a fresh pipeline. A whole number of windows.
inline constexpr double kSliceS = 0.5;

/// Share of an untraced run's measured time given to the fixed-rate
/// phase; the saturation phase gets the rest. Latency percentiles
/// spread more from run to run than throughput, so they get more time.
inline constexpr double kFixedShare = 0.6;

/// Quantile `q` of each kWindowS-second window (by due time), for the
/// windows that hold enough samples for it.
inline std::vector<double> window_quantiles(const LatencySamples& s, double q) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < s.us.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, s.due_s[i]) / kWindowS);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(s.us[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& v : windows)
    if (const std::optional<double> x = quantile(v, q)) per_window.push_back(*x);
  return per_window;
}

/// The interquartile mean over windows of window_quantiles: the
/// percentile of a typical window, which a few stalled windows (another
/// tenant of the host) cannot swing. nullopt when no window qualifies.
inline std::optional<double> windowed_quantile(const LatencySamples& s,
                                               double q) {
  const std::vector<double> per_window = window_quantiles(s, q);
  if (per_window.empty()) return std::nullopt;
  return interquartile_mean(per_window);
}

/// Quantile `q` of every sample of the phase together, no window dropped:
/// a stall that hits up to a quarter of the windows, which
/// windowed_quantile leaves out, moves it. 0 when too few samples lie
/// beyond it.
inline double pooled_quantile(const LatencySamples& s, double q) {
  std::vector<double> all = s.us;
  return quantile(all, q).value_or(0);
}

/// windowed_quantile, or an error naming `what` when no window qualifies.
inline double need_quantile(const LatencySamples& s, double q,
                            const char* what) {
  const std::optional<double> x = windowed_quantile(s, q);
  if (!x)
    throw std::runtime_error(std::string("perfbench: too few samples for ") +
                             what);
  return *x;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports.
struct RunResult {
  bool correct = true;          ///< every verified output matched its golden
  std::uint64_t attempted = 0;  ///< operations decided (verified + failed)
  std::uint64_t failed = 0;     ///< mismatch, error reply, timeout, I/O error
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines (stdout)
  std::vector<std::pair<std::string, std::string>> host;  ///< fingerprint

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Keep a computed value alive so the optimizer cannot drop its work.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Time `fn` in repetitions of ~`rep_s` seconds; returns the median
/// seconds per call over `reps` repetitions.
template <typename Fn>
double time_per_call(Fn&& fn, double rep_s = 0.03, int reps = 5) {
  std::size_t calls = 1;
  for (;;) {  // calibrate the calls per repetition
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) fn();
    const double s = (now_ns() - t0) * 1e-9;
    if (s >= rep_s / 4 || calls >= (std::size_t{1} << 30)) {
      calls = std::max<std::size_t>(
          1, static_cast<std::size_t>(calls * rep_s / std::max(s, 1e-9)));
      break;
    }
    calls *= 4;
  }
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back((now_ns() - t0) * 1e-9 / static_cast<double>(calls));
  }
  return median(per_call);
}

}  // namespace perfbench

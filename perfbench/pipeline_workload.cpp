// pipeline-imix: ScrambleStage(802.11) -> FcsStage(best_for CRC-32) -> a
// bench-owned sink, run by Pipeline under the default PipelinePlan
// (kAuto). Frames come from a FrameArena in Simple-IMIX sizes. No network
// and no FEC: the CRC/scramble kernels, the executor and the arena do all
// the work.
#include <time.h>

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "crc/crc_spec.hpp"
#include "crc/engine_registry.hpp"
#include "lfsr/catalog.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stages.hpp"
#include "scrambler/block_scrambler.hpp"
#include "support/frame_arena.hpp"
#include "support/host_threads.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace plfsr;

namespace {

constexpr unsigned kPoolBits = 12;  // frame id = counter << 12 | pool index
constexpr std::size_t kPoolFrames = std::size_t{1} << kPoolBits;
constexpr std::size_t kSequenceLen = 1 << 16;
constexpr std::size_t kArenaBuffers = 2048;
constexpr std::uint64_t kSetupCounter = std::uint64_t{1} << 40;
constexpr std::int64_t kSpinNs = 30'000;
constexpr std::size_t kSpanBatches = 20000;
constexpr double kReconcileUs = 1.0;
constexpr double kWarmUpS = 1.0;
constexpr std::size_t kWarmBatches = 16;
// A pipeline that has not delivered what was pushed by then lost frames.
constexpr std::int64_t kDeliverTimeoutNs = 5'000'000'000;

/// Distinct frames in Simple-IMIX sizes (64/594/1518 B at 7:4:1) with
/// the golden CRC-32 of each scrambled frame.
struct ImixPool {
  std::uint64_t scramble_seed = 1;
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint64_t> golden;
  std::vector<std::uint32_t> sequence;  // frame counter -> pool index
  std::array<std::uint32_t, 3> probes{0, 7, 11};  // one per size class
};

ImixPool make_pool(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);
  ImixPool pool;
  pool.scramble_seed = 1 + rng.next_below(127);
  static constexpr std::size_t kSizes[] = {64, 594, 1518};
  for (std::size_t i = 0; i < kPoolFrames; ++i) {
    const std::size_t k = i % 12;  // exactly 7:4:1 per twelve frames
    pool.frames.push_back(rng.next_bytes(kSizes[k < 7 ? 0 : k < 11 ? 1 : 2]));
  }
  // Goldens from engines independent of the pipeline's: the byte-wise
  // table CRC and a fresh BlockScrambler per frame.
  const CrcEngineHandle ref =
      EngineRegistry::instance().make("table", crcspec::crc32_ethernet());
  BlockScrambler scr(catalog::scrambler_80211(), pool.scramble_seed);
  for (const std::vector<std::uint8_t>& f : pool.frames) {
    std::vector<std::uint8_t> s = f;
    scr.reseed(pool.scramble_seed);
    scr.process(s);
    pool.golden.push_back(ref.compute(s));
  }
  // Each frame equally often per cycle, in a seeded order.
  pool.sequence.resize(kSequenceLen);
  for (std::size_t i = 0; i < kSequenceLen; ++i)
    pool.sequence[i] = static_cast<std::uint32_t>(i % kPoolFrames);
  for (std::size_t i = kSequenceLen - 1; i > 0; --i)
    std::swap(pool.sequence[i], pool.sequence[rng.next_below(i + 1)]);
  return pool;
}

/// Terminal stage: checks every frame's CRC against its golden, stamps
/// each batch's arrival, and drops the frames (recycling them).
class ImixSink : public Stage {
 public:
  ImixSink(const ImixPool& pool, std::size_t max_batches)
      : pool_(pool), arrival_(max_batches, -1) {}

  const char* name() const override { return "sink"; }

  /// Counter of the first frame of the next phase (call before pushing).
  void arm(std::uint64_t counter0) { base_ = counter0; }

  void process(FrameBatch& b) override {
    const std::int64_t t = now_ns();
    if (!b.empty()) {
      const std::uint64_t c = b.front().id >> kPoolBits;
      if (c >= base_ && (c - base_) / kBatch < arrival_.size())
        arrival_[(c - base_) / kBatch] = t;
    }
    std::uint64_t bad = 0;
    for (const Frame& f : b)
      bad += f.crc != pool_.golden[f.id & (kPoolFrames - 1)];
    if (bad) mismatches_.fetch_add(bad);
    frames_.fetch_add(b.size(), std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_release);
    b.clear();
  }

  std::uint64_t frames() const { return frames_.load(); }
  std::uint64_t batches() const { return batches_.load(); }
  std::uint64_t mismatches() const { return mismatches_.load(); }
  /// Arrival time of phase batch i (-1 if none); read after wait().
  std::int64_t arrival(std::size_t i) const { return arrival_[i]; }

 private:
  const ImixPool& pool_;
  std::uint64_t base_ = ~std::uint64_t{0};  // unarmed: record nothing
  std::vector<std::int64_t> arrival_;
  std::atomic<std::uint64_t> frames_{0}, batches_{0}, mismatches_{0};
};

struct Live {
  std::unique_ptr<Pipeline> pipe;
  ImixSink* sink = nullptr;  // owned by pipe
};

Live make_pipeline(const ImixPool& pool, std::size_t max_batches) {
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<ScrambleStage>(catalog::scrambler_80211(),
                                                   pool.scramble_seed));
  stages.push_back(std::make_unique<FcsStage>(
      EngineRegistry::instance().best_for(crcspec::crc32_ethernet())));
  auto sink = std::make_unique<ImixSink>(pool, max_batches);
  Live live;
  live.sink = sink.get();
  stages.push_back(std::move(sink));
  live.pipe = std::make_unique<Pipeline>(std::move(stages), PipelinePlan{});
  return live;
}

/// Fill and push one batch of frames `counter0 ..` (pool order from the
/// sequence), or the given pool indices when `only` is non-empty.
bool push_batch(Live& live, FrameArena& arena, const ImixPool& pool,
                std::uint64_t counter0, std::size_t n,
                std::span<const std::uint32_t> only = {}) {
  FrameBatch b;
  b.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t c = counter0 + j;
    const std::uint32_t idx =
        only.empty() ? pool.sequence[c % kSequenceLen] : only[j];
    Frame f;
    f.id = (c << kPoolBits) | idx;
    const std::vector<std::uint8_t>& src = pool.frames[idx];
    arena.acquire(f.bytes, src.size());
    std::memcpy(f.bytes.data(), src.data(), src.size());
    b.push_back(std::move(f));
  }
  return live.pipe->push(std::move(b));
}

void sleep_until(std::int64_t t) {
  for (std::int64_t now = now_ns(); now < t; now = now_ns()) {
    if (t - now > kSpinNs) {
      const std::int64_t d = t - now - kSpinNs / 2;
      const timespec ts{static_cast<time_t>(d / 1'000'000'000),
                        static_cast<long>(d % 1'000'000'000)};
      nanosleep(&ts, nullptr);
    }
  }
}

/// Wait until `done()`; throws if the pipeline has not delivered by
/// kDeliverTimeoutNs.
template <typename Done>
void await(Done done) {
  const std::int64_t deadline = now_ns() + kDeliverTimeoutNs;
  while (!done()) {
    if (now_ns() > deadline)
      throw std::runtime_error("perfbench: pipeline did not deliver its frames");
    std::this_thread::yield();
  }
}

/// Push kWarmBatches through a freshly started pipeline and wait until
/// the sink has them: its threads are running and its queues and arena
/// classes are in use before a slice's clock starts. The sink must not be
/// armed yet, so it records no arrival for them.
void warm(Live& live, FrameArena& arena, const ImixPool& pool,
          std::uint64_t& counter) {
  const std::uint64_t before = live.sink->batches();
  for (std::size_t i = 0; i < kWarmBatches; ++i) {
    if (!push_batch(live, arena, pool, counter, kBatch))
      throw std::runtime_error("perfbench: pipeline aborted");
    counter += kBatch;
  }
  await([&] { return live.sink->batches() >= before + kWarmBatches; });
}

/// Construct + start a pipeline and get one verified frame of each size
/// class through the sink. Returns the seconds that took.
double setup_pipeline(const ImixPool& pool, FrameArena& arena, Live& live) {
  const std::int64_t t0 = now_ns();
  live = make_pipeline(pool, 0);
  live.pipe->start();
  if (!push_batch(live, arena, pool, kSetupCounter, pool.probes.size(),
                  pool.probes))
    throw std::runtime_error("perfbench: pipeline aborted in set-up");
  await([&] { return live.sink->frames() >= pool.probes.size(); });
  const double s = (now_ns() - t0) * 1e-9;
  if (live.sink->mismatches() != 0)
    throw std::runtime_error("perfbench: set-up frame CRC mismatch");
  return s;
}

struct FixedPhase {
  LatencySamples latency;
  std::vector<double> lag_us, push_us;
  std::vector<Span> spans;
  std::size_t backlog_max = 0;
  std::size_t growing_slices = 0, slices = 0;  ///< backlog grew in a slice
  double wall_s = 0, gen_cpu_s = 0;
  std::uint64_t pushed = 0, frames = 0, mismatches = 0;
  double residual_max_us = 0, reconciled_frac = 0;

  /// The backlog grew through most slices: over capacity (each slice
  /// starts on an empty pipeline, so growth shows within slices).
  bool over_capacity() const { return 2 * growing_slices > slices; }
};

/// Open loop in kSliceS slices, each on a fresh, warmed pipeline (new stage
/// threads, so one unlucky thread placement cannot set a whole run's
/// figures). Within a slice batch i is due at t0 + i / rate; latency
/// runs from the due time to the sink's arrival stamp. `between` runs
/// untimed before each slice.
FixedPhase run_fixed(const ImixPool& pool, FrameArena& arena,
                     const WorkloadConfig& cfg, double seconds,
                     std::uint64_t& counter, bool trace,
                     const std::function<void()>& between = {}) {
  FixedPhase ph;
  const std::size_t slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kSliceS));
  const std::size_t per_slice = static_cast<std::size_t>(cfg.rate * kSliceS);
  const double interval = 1e9 / cfg.rate;
  ph.latency.due_s.reserve(slices * per_slice);
  ph.latency.us.reserve(slices * per_slice);
  ph.lag_us.reserve(slices * per_slice);
  if (trace) ph.push_us.reserve(slices * per_slice);
  std::vector<std::int64_t> due(per_slice), start(per_slice);
  std::uint64_t ok = 0;
  const std::size_t stride =
      std::max<std::size_t>(1, slices * per_slice / kSpanBatches);
  for (std::size_t k = 0; k < slices; ++k) {
    if (between) between();
    const std::uint64_t counter0 = counter;
    Live live = make_pipeline(pool, per_slice);
    live.pipe->start();
    warm(live, arena, pool, counter);
    live.sink->arm(counter);
    const std::uint64_t sunk0 = live.sink->batches();
    const double cpu0 = thread_cpu_s();
    const std::int64_t t0 = now_ns();
    BacklogTrack track;
    for (std::size_t i = 0; i < per_slice; ++i) {
      due[i] = t0 + static_cast<std::int64_t>(i * interval);
      sleep_until(due[i]);
      start[i] = now_ns();
      ph.lag_us.push_back((start[i] - due[i]) * 1e-3);
      if (!push_batch(live, arena, pool, counter, kBatch))
        throw std::runtime_error("perfbench: pipeline aborted");
      counter += kBatch;
      if (trace) ph.push_us.push_back((now_ns() - start[i]) * 1e-3);
      // Batches due by now (on the schedule, even past the slice's last)
      // and not yet delivered: push() blocks when the pipeline is full, so
      // an overload shows as batches due but not yet pushed.
      const auto due_now =
          static_cast<std::size_t>((now_ns() - t0) / interval) + 1;
      const std::size_t backlog =
          std::max(due_now, i + 1) - (live.sink->batches() - sunk0);
      ph.backlog_max = std::max(ph.backlog_max, backlog);
      track.note(static_cast<double>(i) / per_slice, backlog);
    }
    ++ph.slices;
    ph.growing_slices += track.grows();
    ph.gen_cpu_s += thread_cpu_s() - cpu0;
    live.pipe->close();
    live.pipe->wait();
    ph.wall_s += (now_ns() - t0) * 1e-9;
    ph.pushed += counter - counter0;
    ph.frames += live.sink->frames();
    ph.mismatches += live.sink->mismatches();
    // Slice k's due times map onto window k of the phase.
    const std::int64_t base = t0 - static_cast<std::int64_t>(k * kSliceS * 1e9);
    for (std::size_t i = 0; i < per_slice; ++i) {
      const std::int64_t arr = live.sink->arrival(i);
      if (arr < 0) continue;
      ph.latency.add((due[i] - base) * 1e-9, (arr - due[i]) * 1e-3);
      if (!trace) continue;
      const std::int64_t children = (start[i] - due[i]) + (arr - start[i]);
      const double resid = std::abs((arr - due[i]) - children) * 1e-3;
      ph.residual_max_us = std::max(ph.residual_max_us, resid);
      ok += resid <= kReconcileUs;
      const std::uint64_t id = k * per_slice + i;
      if (id % stride != 0) continue;
      ph.spans.push_back({id, "batch", "", due[i] - base, arr - base});
      ph.spans.push_back({id, "batch.queue", "batch", due[i] - base, start[i] - base});
      ph.spans.push_back({id, "batch.transit", "batch", start[i] - base, arr - base});
    }
  }
  if (!ph.latency.us.empty())
    ph.reconciled_frac = static_cast<double>(ok) / ph.latency.us.size();
  return ph;
}

struct SatPhase {
  std::uint64_t pushed = 0, frames = 0, mismatches = 0, producer_stalls = 0;
  double wall_s = 0, cpu_s = 0;
  std::vector<double> slice_fps, slice_cpu_us;  // per slice
  std::vector<StageStats> stages;  // summed over slices (high water: max)
};

/// Closed loop in kSliceS slices, each on a fresh pipeline: push as
/// fast as push() returns, then drain. `between` runs untimed before
/// each slice.
SatPhase run_saturation(const ImixPool& pool, FrameArena& arena,
                        double seconds, std::uint64_t& counter,
                        const std::function<void()>& between = {}) {
  SatPhase ph;
  const std::size_t slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kSliceS));
  for (std::size_t k = 0; k < slices; ++k) {
    if (between) between();
    const std::uint64_t counter0 = counter;
    Live live = make_pipeline(pool, 0);
    live.pipe->start();
    warm(live, arena, pool, counter);
    const std::uint64_t warm_frames = live.sink->frames();
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(kSliceS * 1e9);
    while (now_ns() < end) {
      if (!push_batch(live, arena, pool, counter, kBatch))
        throw std::runtime_error("perfbench: pipeline aborted");
      counter += kBatch;
    }
    live.pipe->close();
    live.pipe->wait();
    const double wall = (now_ns() - t0) * 1e-9;
    const double cpu = process_cpu_s() - cpu0;
    const std::uint64_t frames = live.sink->frames() - warm_frames;
    ph.wall_s += wall;
    ph.cpu_s += cpu;
    ph.pushed += counter - counter0;
    ph.frames += frames + warm_frames;
    ph.mismatches += live.sink->mismatches();
    ph.producer_stalls += live.pipe->producer_stalls();
    ph.slice_fps.push_back(frames / wall);
    ph.slice_cpu_us.push_back(1e6 * cpu / frames);
    const std::vector<StageStats>& st = live.pipe->stats();
    if (ph.stages.empty()) ph.stages.resize(st.size());
    for (std::size_t i = 0; i < st.size(); ++i) {
      StageStats& a = ph.stages[i];
      a.frames += st[i].frames;
      a.busy_ns += st[i].busy_ns;
      a.pop_stalls += st[i].pop_stalls;
      a.push_stalls += st[i].push_stalls;
      a.queue_high_water = std::max(a.queue_high_water, st[i].queue_high_water);
    }
  }
  return ph;
}

/// Add a phase's frames to the run. Each frame pushed is one operation;
/// one whose CRC mismatched, or that never reached the sink, failed and
/// makes the run incorrect.
void tally(RunResult& r, std::uint64_t pushed, std::uint64_t sunk,
           std::uint64_t mismatches) {
  const std::uint64_t lost = pushed > sunk ? pushed - sunk : sunk - pushed;
  r.attempted += pushed;
  r.failed += mismatches + lost;
  if (mismatches + lost == 0) return;
  r.correct = false;
  r.notes.push_back("failures: " + std::to_string(mismatches) +
                    " CRC mismatches, " + std::to_string(lost) +
                    " frames pushed but not delivered (or delivered twice)");
}

}  // namespace

RunResult run_pipeline(const WorkloadConfig& cfg) {
  if (cfg.name != "pipeline-imix")
    throw std::invalid_argument("perfbench: unknown workload '" + cfg.name +
                                "'");
  RunResult r;
  add_host_fingerprint(r);
  const ImixPool pool = make_pool(cfg.seed);
  FrameArena arena(kArenaBuffers);
  const double fixed_s = cfg.trace ? cfg.seconds * 0.2 : cfg.seconds * kFixedShare;

  std::vector<double> setups;
  const std::function<void()> setup_round = [&] {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      Live live;
      setups.push_back(setup_pipeline(pool, arena, live));
      live.pipe->close();  // tear-down is not set-up
      live.pipe->wait();
      tally(r, pool.probes.size(), live.sink->frames(), live.sink->mismatches());
      if (setups.size() == 1)
        r.notes.push_back(std::string("exec mode: ") +
                          (live.pipe->fused() ? "fused" : "threaded"));
    }
  };
  setup_round();
  // Unmeasured saturated traffic first, so the keystream caches, arena
  // classes and CPU caches are warm before any phase is timed.
  std::uint64_t counter = 0;
  const SatPhase warm = run_saturation(pool, arena, kWarmUpS, counter);
  tally(r, warm.pushed, warm.frames, warm.mismatches);
  // The traced run reports no setup_s: it times set-up once.
  const std::function<void()> between =
      cfg.trace ? std::function<void()>{} : setup_round;
  FixedPhase fixed =
      run_fixed(pool, arena, cfg, fixed_s, counter, false, between);
  tally(r, fixed.pushed, fixed.frames, fixed.mismatches);

  const double sat_s = cfg.trace ? cfg.seconds * 0.2 : cfg.seconds * (1 - kFixedShare);
  const SatPhase sat = run_saturation(pool, arena, sat_s, counter, between);
  tally(r, sat.pushed, sat.frames, sat.mismatches);
  if (!cfg.trace) setup_round();
  const double fps = interquartile_mean(sat.slice_fps);

  if (!cfg.trace) {
    r.add("throughput_fps", fps, "frames/s");
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
    r.notes.push_back("fixed-rate phase: " + std::to_string(cfg.rate) +
                      " batches/s of " + std::to_string(kBatch) + " frames" +
                      (fixed.over_capacity() ? ", OVER CAPACITY (backlog grows)"
                                             : ""));
    return r;
  }

  // Traced pair of phases (push timings and batch spans kept).
  FixedPhase fixed_t = run_fixed(pool, arena, cfg, cfg.seconds * 0.3, counter, true);
  tally(r, fixed_t.pushed, fixed_t.frames, fixed_t.mismatches);
  const ArenaSnap a0(arena);
  const SatPhase sat_t = run_saturation(pool, arena, cfg.seconds * 0.3, counter);
  const ArenaSnap a1(arena);
  tally(r, sat_t.pushed, sat_t.frames, sat_t.mismatches);
  const double fps_t = interquartile_mean(sat_t.slice_fps);

  // The tail beyond the bounded p90, from the untraced fixed-rate phase.
  r.add("latency_p99_us", windowed_quantile(fixed.latency, 0.99).value_or(0),
        "us");
  r.add("latency_p90_pooled_us", pooled_quantile(fixed.latency, 0.9), "us");
  r.add("gen.lag_p99_us", quantile(fixed_t.lag_us, 0.99).value_or(0), "us");
  r.add("gen.backlog_max", static_cast<double>(fixed_t.backlog_max), "count");
  r.add("gen.cpu_frac", fixed_t.gen_cpu_s / fixed_t.wall_s, "ratio");
  r.add("gen.over_capacity", fixed_t.over_capacity() ? 1 : 0, "flag");
  static constexpr const char* kStageKeys[] = {"scramble", "fcs", "sink"};
  double ideal_s_per_frame = 0;
  for (std::size_t i = 0; i < sat_t.stages.size() && i < 3; ++i) {
    const StageStats& s = sat_t.stages[i];
    const std::string k = std::string("pipeline.") + kStageKeys[i];
    r.add(k + ".busy_frac", s.busy_ns * 1e-9 / sat_t.wall_s, "ratio");
    r.add(k + ".pop_stalls", static_cast<double>(s.pop_stalls), "count");
    r.add(k + ".push_stalls", static_cast<double>(s.push_stalls), "count");
    r.add(k + ".queue_high_water", static_cast<double>(s.queue_high_water),
          "batches");
    if (s.frames) ideal_s_per_frame += s.busy_ns * 1e-9 / s.frames;
  }
  r.add("pipeline.producer_stalls", static_cast<double>(sat_t.producer_stalls),
        "count");
  r.add("pipeline.push_us", median(fixed_t.push_us), "us");
  r.add("pipeline.efficiency",
        sat_t.frames / sat_t.wall_s * ideal_s_per_frame, "ratio");
  add_arena_delta(r, "frame_arena.pipeline", a0, a1, sat_t.frames);
  r.add("proc.cpu_util", sat_t.cpu_s / sat_t.wall_s / host_threads(), "ratio");
  add_kernel_metrics(r);

  r.add("trace.overhead_fps_frac", 1.0 - fps_t / fps, "ratio");
  r.add("trace.overhead_p50_frac",
        need_quantile(fixed_t.latency, 0.5, "p50") /
                need_quantile(fixed.latency, 0.5, "p50") -
            1.0,
        "ratio");
  r.add("trace.residual_max_us", fixed_t.residual_max_us, "us");
  r.add("trace.reconciled_frac", fixed_t.reconciled_frac, "ratio");
  if (!cfg.trace_dir.empty()) {
    const SpanLog log{std::move(fixed_t.spans)};
    const std::string path = cfg.trace_dir + "/" + cfg.name + "-seed" +
                             std::to_string(cfg.seed) + ".spans.csv";
    if (!log.save(path)) throw std::runtime_error("perfbench: write " + path);
    r.notes.push_back("spans: " + std::to_string(log.spans.size()) + " -> " +
                      path);
  }
  return r;
}

}  // namespace perfbench

// The benchmark's workloads and the layer probes they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "load_gen.hpp"

namespace plfsr {
class FrameArena;
}
namespace plfsr::offload {
class OffloadDispatcher;
}

namespace perfbench {

/// Set-up is timed in rounds of kSetupsPerRound spread over the run: at
/// its start, after warm-up, before every slice of a sliced phase and at
/// its end. Its figure follows the host's state of the moment (it falls in
/// one of two modes for a few milliseconds at a time) far more than it
/// varies within a round. setup_s is the median of them all.
inline constexpr int kSetupsPerRound = 2;

/// Offload workloads: connections of the one generator thread (one per
/// core of the 4-core reference host) and, in the saturation phase,
/// requests in flight per connection.
inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kDepth = 4;
/// pipeline-imix: frames per pushed batch.
inline constexpr std::size_t kBatch = 32;

struct WorkloadConfig {
  std::string name;        ///< offload-small | offload-bulk | pipeline-imix
  std::uint64_t seed = 1;
  double seconds = 10;     ///< measured time, split over the phases
  bool trace = false;      ///< per-layer run instead of the end-to-end one
  double rate = 1000;      ///< fixed-rate phase: requests (batches) / s
  std::string trace_dir;   ///< where the traced run writes its spans
};

/// The distinct requests of an offload workload, with golden replies,
/// and the seeded order they are sent in.
struct OffloadPool {
  std::vector<WireTemplate> templates;
  std::vector<std::uint32_t> sequence;
};

/// Build the pool of `workload` from `seed`; goldens come from `golden`
/// (a local dispatcher). Throws std::invalid_argument on an unknown name.
OffloadPool make_offload_pool(const std::string& workload, std::uint64_t seed,
                              const plfsr::offload::OffloadDispatcher& golden);

RunResult run_offload(const WorkloadConfig& cfg);
RunResult run_pipeline(const WorkloadConfig& cfg);

// --- layer probes (layers.cpp) -------------------------------------------

/// In-process replay of each template: decode_request_view ->
/// OffloadDispatcher::execute -> the bare kernel call ->
/// encode_response_header, each timed on its own.
struct Replay {
  std::vector<double> execute_us;  ///< per template
  std::vector<double> kernel_us;   ///< per template
  double decode_ns = 0;            ///< median over templates
  double encode_ns = 0;
};
Replay replay_templates(const std::vector<WireTemplate>& templates);

/// Kernel throughput of the crc, scrambler and fec layers.
void add_kernel_metrics(RunResult& r);

/// nproc, CPU model, cpu_features, engine resolutions.
void add_host_fingerprint(RunResult& r);

/// A FrameArena's public counters at one moment.
struct ArenaSnap {
  std::uint64_t acquires = 0, recycles = 0, heap = 0, stalls = 0, evictions = 0;
  explicit ArenaSnap(const plfsr::FrameArena& a);
};

/// `prefix`.{heap_allocs_per_kframe, recycle_frac, evictions,
/// acquire_stalls} between two snapshots, over `frames` frames served.
void add_arena_delta(RunResult& r, const std::string& prefix,
                     const ArenaSnap& a, const ArenaSnap& b,
                     std::uint64_t frames);

/// One traced interval; spans of one request share `id`.
struct Span {
  std::uint64_t id = 0;
  const char* name = "";
  const char* parent = "";  ///< "" for the root span
  std::int64_t start_ns = 0, end_ns = 0;
};

/// Spans kept in memory during the traced run and written once at its
/// end, one "id,span,parent,start_ns,end_ns" CSV row each.
struct SpanLog {
  std::vector<Span> spans;
  bool save(const std::string& path) const;
};

}  // namespace perfbench

// perfbench — the repository benchmark (see README.md).
//
//   perfbench --workload offload-small|offload-bulk|pipeline-imix
//             --seed N --seconds S --trace 0|1 --rate R [--trace-dir DIR]
//
// Prints notes, then a host-fingerprint line, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"throughput_fps", "frames/s"}, {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},       {"cpu_us_per_frame", "us"},
    {"peak_rss_MB", "MB"},          {"setup_s", "s"},
};

// Every workload reports every per-layer metric; one its workload does
// not exercise (a server counter on pipeline-imix) reads 0.
const MetricDef kPerLayer[] = {
    {"latency_p99_us", "us"},
    {"latency_p90_pooled_us", "us"},
    {"gen.lag_p99_us", "us"},
    {"gen.backlog_max", "count"},
    {"gen.cpu_frac", "ratio"},
    {"gen.over_capacity", "flag"},
    {"net.ping0_rtt_us", "us"},
    {"net.send_us", "us"},
    {"net.wait_us", "us"},
    {"net.recv_us", "us"},
    {"server.overhead_us", "us"},
    {"server.error_replies", "count"},
    {"server.reconnects", "count"},
    {"server.split_body_fail_frac", "ratio"},
    {"server.ctx_switches_per_frame", "count"},
    {"protocol.decode_ns", "ns"},
    {"protocol.encode_ns", "ns"},
    {"dispatch.execute_us.ping", "us"},
    {"dispatch.execute_us.crc", "us"},
    {"dispatch.execute_us.scramble", "us"},
    {"dispatch.execute_us.fec_encode", "us"},
    {"dispatch.execute_us.fec_decode", "us"},
    {"dispatch.execute_us.pipeline", "us"},
    {"dispatch.self_us", "us"},
    {"crc.compute_MBps.64", "MB/s"},
    {"crc.compute_MBps.1518", "MB/s"},
    {"crc.compute_MBps.65536", "MB/s"},
    {"crc.compute_many_Mfps.64", "Mframes/s"},
    {"scrambler.process_MBps.1518", "MB/s"},
    {"scrambler.process_MBps.65536", "MB/s"},
    {"scrambler.reseed_ns", "ns"},
    {"fec.rs204_encode_MBps", "MB/s"},
    {"fec.rs204_decode_MBps", "MB/s"},
    {"fec.bch_encode_MBps", "MB/s"},
    {"pipeline.scramble.busy_frac", "ratio"},
    {"pipeline.scramble.pop_stalls", "count"},
    {"pipeline.scramble.push_stalls", "count"},
    {"pipeline.scramble.queue_high_water", "batches"},
    {"pipeline.fcs.busy_frac", "ratio"},
    {"pipeline.fcs.pop_stalls", "count"},
    {"pipeline.fcs.push_stalls", "count"},
    {"pipeline.fcs.queue_high_water", "batches"},
    {"pipeline.sink.busy_frac", "ratio"},
    {"pipeline.sink.pop_stalls", "count"},
    {"pipeline.sink.push_stalls", "count"},
    {"pipeline.sink.queue_high_water", "batches"},
    {"pipeline.producer_stalls", "count"},
    {"pipeline.push_us", "us"},
    {"pipeline.efficiency", "ratio"},
    {"frame_arena.pipeline.heap_allocs_per_kframe", "allocs/kframe"},
    {"frame_arena.pipeline.recycle_frac", "ratio"},
    {"frame_arena.pipeline.evictions", "count"},
    {"frame_arena.pipeline.acquire_stalls", "count"},
    {"frame_arena.server_request.heap_allocs_per_kframe", "allocs/kframe"},
    {"frame_arena.server_request.recycle_frac", "ratio"},
    {"frame_arena.server_request.evictions", "count"},
    {"frame_arena.server_request.acquire_stalls", "count"},
    {"frame_arena.server_reply.heap_allocs_per_kframe", "allocs/kframe"},
    {"frame_arena.server_reply.recycle_frac", "ratio"},
    {"frame_arena.server_reply.evictions", "count"},
    {"frame_arena.server_reply.acquire_stalls", "count"},
    {"proc.cpu_util", "ratio"},
    {"trace.overhead_fps_frac", "ratio"},
    {"trace.overhead_p50_frac", "ratio"},
    {"trace.residual_max_us", "us"},
    {"trace.reconciled_frac", "ratio"},
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

/// The metrics of `defs`, in their order, from what the workload
/// measured (absent ones read 0). Throws on a measured metric outside
/// `defs` or a unit that disagrees with it.
std::string metrics_json(const RunResult& r, const MetricDef* defs,
                         std::size_t n) {
  std::map<std::string, const Metric*> got;
  for (const Metric& m : r.metrics) got[m.name] = &m;
  std::set<std::string> known;
  std::ostringstream out;
  out << std::setprecision(10);
  out << '{';
  for (std::size_t i = 0; i < n; ++i) {
    known.insert(defs[i].name);
    const auto it = got.find(defs[i].name);
    double v = 0;
    if (it != got.end()) {
      if (it->second->unit != defs[i].unit)
        throw std::runtime_error(std::string("unit mismatch for ") +
                                 defs[i].name);
      v = it->second->value;
    }
    if (!std::isfinite(v))
      throw std::runtime_error(std::string("non-finite ") + defs[i].name);
    out << (i ? ", " : "") << json_str(defs[i].name) << ": {\"value\": " << v
        << ", \"unit\": " << json_str(defs[i].unit) << '}';
  }
  out << '}';
  for (const auto& [name, m] : got)
    if (!known.count(name))
      throw std::runtime_error("metric outside the schema: " + name);
  return out.str();
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --rate R [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      cfg.name = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (a == "--trace") {
      cfg.trace = std::atoi(v) != 0;
    } else if (a == "--rate") {
      cfg.rate = std::atof(v);
    } else if (a == "--trace-dir") {
      cfg.trace_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || cfg.seconds <= 0 || cfg.rate <= 0) return usage();

  try {
    const RunResult r = cfg.name == "pipeline-imix" ? run_pipeline(cfg)
                                                    : run_offload(cfg);
    const std::string metrics =
        cfg.trace ? metrics_json(r, kPerLayer, std::size(kPerLayer))
                  : metrics_json(r, kEndToEnd, std::size(kEndToEnd));
    for (const std::string& n : r.notes) std::cout << "# " << n << "\n";
    if (r.attempted > 0)
      std::cout << "# fail_frac: " << std::setprecision(6)
                << static_cast<double>(r.failed) / r.attempted << " ("
                << r.failed << " / " << r.attempted << ")\n";
    std::cout << "{\"host\": {";
    for (std::size_t i = 0; i < r.host.size(); ++i)
      std::cout << (i ? ", " : "") << json_str(r.host[i].first) << ": "
                << json_str(r.host[i].second);
    std::cout << "}, \"workload\": " << json_str(cfg.name)
              << ", \"seed\": " << cfg.seed << ", \"trace\": " << cfg.trace
              << "}\n";
    std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": " << metrics
              << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

// Layer probes: in-process replay of the workload's requests through the
// offload layers, kernel throughput of the crc/scrambler/fec layers, and
// the host fingerprint recorded with every result.
#include <cpuid.h>

#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "crc/crc_spec.hpp"
#include "crc/engine_registry.hpp"
#include "fec/fec_registry.hpp"
#include "fec/parallel_fec.hpp"
#include "lfsr/catalog.hpp"
#include "offload/dispatch.hpp"
#include "pipeline/fec_stages.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stages.hpp"
#include "scrambler/block_scrambler.hpp"
#include "support/cpu_features.hpp"
#include "support/frame_arena.hpp"
#include "support/host_threads.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace plfsr;
using namespace plfsr::offload;

namespace {

// Replay timing is per template, so each repetition is short.
constexpr double kReplayRepS = 0.0005;
constexpr int kReplayReps = 3;

/// The catalogue tables the dispatcher serves, rebuilt from outside it.
struct Catalogue {
  std::map<std::string, CrcSpec> crc;
  std::map<std::string, Gf2Poly> scr;
  std::map<std::string, FecSpec> fec;
  Catalogue() {
    for (const CrcSpec& s : crcspec::all()) crc.emplace(s.name, s);
    for (const catalog::NamedPoly& p : catalog::all_scrambler_polys())
      scr.emplace(p.name, p.poly);
    for (const FecSpec& s : fec::all_fec_specs()) fec.emplace(s.name(), s);
  }
};

CrcEngineHandle best_crc(const CrcSpec& spec) {
  const EngineRegistry& reg = EngineRegistry::instance();
  return reg.make_cached(reg.best_name_for(spec), spec);
}

/// The fused pipeline a kPipeline request compiles to, built the way
/// the dispatcher documents it (stages per op + collecting sink).
struct Chain {
  std::unique_ptr<Pipeline> pipe;
  CollectSink* sink = nullptr;
};

Chain build_chain(const Catalogue& cat, const std::vector<PipelineOp>& ops) {
  std::vector<std::unique_ptr<Stage>> stages;
  for (const PipelineOp& o : ops) {
    switch (o.op) {
      case Op::kCrc:
        stages.push_back(std::make_unique<FcsStage>(best_crc(cat.crc.at(o.name))));
        break;
      case Op::kScramble:
        stages.push_back(
            std::make_unique<ScrambleStage>(cat.scr.at(o.name), o.param));
        break;
      case Op::kFecEncode:
        stages.push_back(std::make_unique<RsEncodeStage>(
            FecRegistry::instance().best_for(cat.fec.at(o.name))));
        break;
      case Op::kFecDecode:
        stages.push_back(std::make_unique<RsDecodeStage>(
            FecRegistry::instance().best_for(cat.fec.at(o.name))));
        break;
      default:
        throw std::invalid_argument("perfbench: op cannot be chained");
    }
  }
  Chain c;
  auto sink = std::make_unique<CollectSink>();
  c.sink = sink.get();
  stages.push_back(std::move(sink));
  c.pipe = std::make_unique<Pipeline>(std::move(stages), PipelinePlan::fused());
  c.pipe->start();
  return c;
}

/// Seconds per bare kernel call of the request behind `view`.
double kernel_seconds(const Catalogue& cat, const RequestView& view) {
  const std::string name(view.name);
  const std::span<const std::uint8_t> in = view.payload;
  std::vector<std::uint8_t> scratch(in.begin(), in.end());
  switch (view.op) {
    case Op::kPing:
      return time_per_call(
          [&] {
            std::memcpy(scratch.data(), in.data(), in.size());
            keep(scratch.data());
          },
          kReplayRepS, kReplayReps);
    case Op::kCrc: {
      const CrcEngineHandle crc = best_crc(cat.crc.at(name));
      return time_per_call([&] { keep(crc.compute(in)); }, kReplayRepS,
                           kReplayReps);
    }
    case Op::kScramble: {
      BlockScrambler scr(cat.scr.at(name), view.param);
      return time_per_call(
          [&] {
            scr.reseed(view.param);
            scr.process(scratch.data(), scratch.size());
            keep(scratch.data());
          },
          kReplayRepS, kReplayReps);
    }
    case Op::kFecEncode:
    case Op::kFecDecode: {
      const ParallelFec fec(FecRegistry::instance().best_for(cat.fec.at(name)),
                            1);
      const bool enc = view.op == Op::kFecEncode;
      std::vector<std::uint8_t> out(enc ? fec.encoded_size(in.size())
                                        : fec.decoded_size(in.size()));
      return time_per_call(
          [&] {
            const ParallelFecResult r =
                enc ? fec.encode(in, out) : fec.decode(in, out);
            keep(r.blocks);
          },
          kReplayRepS, kReplayReps);
    }
    case Op::kPipeline: {
      std::vector<PipelineOp> ops;
      std::span<const std::uint8_t> data;
      if (decode_pipeline_ops(in, ops, data) != Status::kOk)
        throw std::runtime_error("perfbench: replayed chain does not decode");
      Chain chain = build_chain(cat, ops);
      // Filling the frame is timed on its own and taken off: the kernel
      // is the fused push.
      const auto fill = [&] {
        Frame f;
        f.bytes = FrameBuf(std::vector<std::uint8_t>(data.begin(), data.end()));
        FrameBatch b;
        b.push_back(std::move(f));
        return b;
      };
      const double fill_s =
          time_per_call([&] { keep(fill().size()); }, kReplayRepS, kReplayReps);
      const double push_s = time_per_call(
          [&] {
            chain.pipe->push(fill());
            keep(chain.sink->take().size());
          },
          kReplayRepS, kReplayReps);
      chain.pipe->close();
      chain.pipe->wait();
      return std::max(push_s - fill_s, 0.0);
    }
  }
  return 0;
}

std::string cpu_brand() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

/// The FEC engine FecRegistry::best_for resolves to for `spec` (the
/// registry returns the codec, not its name).
std::string fec_engine_for(const FecSpec& spec) {
  const FecRegistry& reg = FecRegistry::instance();
  if (!fec_engine_override().empty()) return fec_engine_override();
  std::string best;
  int pref = 0;
  for (const std::string& n : reg.names()) {
    if (!reg.supports(n, spec)) continue;
    const int p = reg.find(n)->preference;
    if (best.empty() || p > pref) {
      best = n;
      pref = p;
    }
  }
  return best;
}

}  // namespace

Replay replay_templates(const std::vector<WireTemplate>& templates) {
  const Catalogue cat;
  const OffloadDispatcher dispatcher;
  Replay out;
  std::vector<double> dec_ns, enc_ns;
  for (const WireTemplate& t : templates) {
    const std::span<const std::uint8_t> body(t.req.data() + kLenBytes,
                                             t.req.size() - kLenBytes);
    RequestView view;
    dec_ns.push_back(1e9 * time_per_call(
                               [&] { keep(decode_request_view(body, view)); },
                               kReplayRepS, kReplayReps));
    if (decode_request_view(body, view) != Status::kOk)
      throw std::runtime_error("perfbench: template does not decode");
    out.execute_us.push_back(1e6 * time_per_call(
                                       [&] {
                                         const WireReply r =
                                             dispatcher.execute(view);
                                         keep(r.result);
                                       },
                                       kReplayRepS, kReplayReps));
    out.kernel_us.push_back(1e6 * kernel_seconds(cat, view));
    const std::size_t payload_len = t.resp.size() - kLenBytes - kFixedBodyBytes;
    enc_ns.push_back(1e9 * time_per_call(
                               [&] {
                                 const std::vector<std::uint8_t> h =
                                     encode_response_header(Status::kOk,
                                                            view.op, 0,
                                                            payload_len);
                                 keep(h.data());
                               },
                               kReplayRepS, kReplayReps));
  }
  out.decode_ns = median(dec_ns);
  out.encode_ns = median(enc_ns);
  return out;
}

void add_kernel_metrics(RunResult& r) {
  Rng rng(0x5eed);
  const CrcEngineHandle crc = EngineRegistry::instance().best_for(
      crcspec::crc32_ethernet());
  for (const std::size_t size : {std::size_t{64}, std::size_t{1518},
                                 std::size_t{65536}}) {
    // Rotate over 256 KiB of distinct frames so small frames are not
    // timed from one hot cache line.
    std::vector<std::vector<std::uint8_t>> frames(
        std::max<std::size_t>(1, (std::size_t{1} << 18) / size));
    for (auto& f : frames) f = rng.next_bytes(size);
    std::size_t i = 0;
    const double s = time_per_call([&] {
      keep(crc.compute(frames[i]));
      i = (i + 1) % frames.size();
    });
    r.add("crc.compute_MBps." + std::to_string(size), size / s / 1e6, "MB/s");
  }
  {
    std::vector<std::vector<std::uint8_t>> frames(256);
    std::vector<FrameView> views;
    for (auto& f : frames) {
      f = rng.next_bytes(64);
      views.emplace_back(f);
    }
    std::vector<std::uint64_t> out(frames.size());
    const double s = time_per_call([&] {
      crc.compute_many(views, out);
      keep(out.data());
    });
    r.add("crc.compute_many_Mfps.64", frames.size() / s / 1e6, "Mframes/s");
  }
  {
    BlockScrambler scr(catalog::scrambler_80211(), 0x5D);
    for (const std::size_t size : {std::size_t{1518}, std::size_t{65536}}) {
      std::vector<std::uint8_t> buf = rng.next_bytes(size);
      const double s = time_per_call([&] {
        scr.process(buf.data(), buf.size());
        keep(buf.data());
      });
      r.add("scrambler.process_MBps." + std::to_string(size), size / s / 1e6,
            "MB/s");
    }
    std::uint64_t seed = 1;
    const double s = time_per_call([&] {
      scr.reseed(seed);
      seed = seed % 127 + 1;
    });
    r.add("scrambler.reseed_ns", s * 1e9, "ns");
  }
  {
    // FEC on a 1504-byte payload (8 full RS(204,188) blocks); decode
    // corrects one byte per block, the offload-bulk error pattern.
    const std::vector<std::uint8_t> data = rng.next_bytes(1504);
    const auto rate = [&](const FecSpec& spec, bool decode) {
      const ParallelFec fec(FecRegistry::instance().best_for(spec), 1);
      std::vector<std::uint8_t> code(fec.encoded_size(data.size()));
      fec.encode(data, code);
      const std::size_t block = fec.codec().code_bytes();
      for (std::size_t off = 0; off < code.size(); off += block)
        code[off + rng.next_below(std::min(block, code.size() - off))] ^= 0x5A;
      std::vector<std::uint8_t> out(data.size());
      const double s = time_per_call([&] {
        const ParallelFecResult res =
            decode ? fec.decode(code, out) : fec.encode(data, code);
        keep(res.blocks);
      });
      return data.size() / s / 1e6;
    };
    r.add("fec.rs204_encode_MBps", rate(fec::rs_204_188(), false), "MB/s");
    r.add("fec.rs204_decode_MBps", rate(fec::rs_204_188(), true), "MB/s");
    r.add("fec.bch_encode_MBps", rate(fec::bch_255_t2(), false), "MB/s");
  }
}

void add_host_fingerprint(RunResult& r) {
  const CpuFeatures& f = cpu_features();
  const EngineRegistry& crc = EngineRegistry::instance();
  r.host = {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"host_threads", std::to_string(host_threads())},
      {"cpu_model", cpu_brand()},
      {"pclmul", f.pclmul ? "true" : "false"},
      {"sse41", f.sse41 ? "true" : "false"},
      {"clmul_allowed", clmul_allowed() ? "true" : "false"},
      {"crc_engine.CRC-32/ETHERNET",
       crc.best_name_for(crcspec::crc32_ethernet())},
      {"crc_engine.CRC-32C", crc.best_name_for(crcspec::crc32c())},
      {"crc_engine.CRC-16/CCITT-FALSE",
       crc.best_name_for(crcspec::crc16_ccitt_false())},
      {"fec_engine.RS(204,188)", fec_engine_for(fec::rs_204_188())},
      {"fec_engine.BCH(255,239,t=2)", fec_engine_for(fec::bch_255_t2())},
      {"pipeline_exec_mode.3_stages",
       PipelinePlan{}.resolve(3) == ExecMode::kFused ? "fused" : "threaded"},
  };
}

ArenaSnap::ArenaSnap(const FrameArena& a)
    : acquires(a.acquires()),
      recycles(a.recycles()),
      heap(a.heap_allocations()),
      stalls(a.acquire_stalls()),
      evictions(a.evictions()) {}

void add_arena_delta(RunResult& r, const std::string& prefix,
                     const ArenaSnap& a, const ArenaSnap& b,
                     std::uint64_t frames) {
  const double acq = static_cast<double>(b.acquires - a.acquires);
  r.add(prefix + ".heap_allocs_per_kframe",
        frames ? 1000.0 * (b.heap - a.heap) / frames : 0, "allocs/kframe");
  r.add(prefix + ".recycle_frac", acq > 0 ? (b.recycles - a.recycles) / acq : 0,
        "ratio");
  r.add(prefix + ".evictions", static_cast<double>(b.evictions - a.evictions),
        "count");
  r.add(prefix + ".acquire_stalls", static_cast<double>(b.stalls - a.stalls),
        "count");
}

bool SpanLog::save(const std::string& path) const {
  std::ofstream out(path);
  out << "id,span,parent,start_ns,end_ns\n";
  for (const Span& s : spans)
    out << s.id << ',' << s.name << ',' << s.parent << ',' << s.start_ns
        << ',' << s.end_ns << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench

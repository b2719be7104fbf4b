// tdsim's benchmark binary: builds one of four seeded workloads
// through tdsim's public API, runs it repeatedly for a time budget, checks
// every iteration's outputs, and prints one JSON object per process (the
// last stdout line) that tdbench/run.py aggregates.
//
//   tdbench --workload NAME --seed N --seconds S --expect FILE [--trace]
//           [--size tiny]          measure, comparing against FILE
//   tdbench --workload NAME --seed N --reference FILE [--size tiny]
//                                  run the reference flavor once, write FILE
//
// The first iteration of a process is cold (fresh process, empty stack
// pool, lazy scheduler start-up); later ones are warm. With --trace, warm
// iterations alternate untraced and traced, so the tracing overhead is
// measured under the same conditions as the traced numbers.
//
// Workloads (see tdbench/README.md for why each was chosen):
//   fifo_narrow       producer -> depth-4 Smart FIFO -> consumer, one
//                     domain, workers=0; reference: TDless (wait() + a
//                     FIFO that synchronizes at every access).
//   soc_casestudy     the paper's SIV.C SoC, Smart flavor, 4x4 mesh;
//                     reference: the sync-per-access flavor.
//   mesh_scale        100 concurrent domains, 10k threads x 3 lives on
//                     pooled stacks, mesh links, workers=3; reference:
//                     the same model at workers=0.
//   multidomain_wide  8 clusters of cpu/periph domains with a cross-domain
//                     Smart-FIFO stream, compute-heavy steps, workers=3;
//                     reference: the same model at workers=0.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/smart_fifo.h"
#include "core/sync_fifo.h"
#include "kernel/failure.h"
#include "kernel/fiber_sanitizer.h"
#include "kernel/kernel.h"
#include "kernel/kernel_config.h"
#include "kernel/stats.h"
#include "kernel/sync_domain.h"
#include "soc/soc_platform.h"
#include "tracer.h"

#ifndef TDBENCH_BUILD_TYPE
#define TDBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using tdbench::Kind;
using tdbench::Lane;
using tdbench::Span;
using tdbench::Tracer;
using tdbench::now_ns;
using tdsim::DomainStats;
using tdsim::Kernel;
using tdsim::KernelConfig;
using tdsim::KernelStats;
using tdsim::SmartFifo;
using tdsim::SyncCause;
using tdsim::SyncDomain;
using tdsim::SyncFifo;
using tdsim::ThreadOptions;
using tdsim::Time;
using namespace tdsim::time_literals;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// splitmix64: the benchmark's only source of generated inputs.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Rng {
  std::uint64_t state = 0;
  std::uint64_t next() { return mix64(state++); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

Time ns(std::uint64_t n) { return Time::from_ps(n * 1000); }

/// Every TDSIM_* knob; the benchmark clears them so an ambient
/// environment cannot change a workload. The last two are compile-time
/// switches of kernel/fiber_sanitizer.h, reported below.
constexpr const char* kEnvKnobs[] = {
    "TDSIM_WORKERS",          "TDSIM_CHUNKED",       "TDSIM_STACK_POOL",
    "TDSIM_STACK_GUARD",      "TDSIM_ADAPTIVE_QUANTUM",
    "TDSIM_QUANTUM_TRACE",    "TDSIM_WALL_LIMIT_MS", "TDSIM_ASAN_FIBERS",
    "TDSIM_TSAN_FIBERS",
};

/// Every KernelConfig field set explicitly.
KernelConfig pinned_config(std::size_t workers) {
  return KernelConfig{.workers = workers,
                      .default_chunk_capacity = 0,
                      .adaptive_quantum = false,
                      .quantum_trace_depth = 8,
                      .lookahead_limit = 64,
                      .delta_cycle_limit = 0,
                      .wall_limit_ms = 0,
                      .pooled_stacks = true,
                      .stack_guard = true};
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Minimal JSON object writer.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  Json& u64(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') {
        quoted += '\\';
      }
      quoted += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
    }
    return raw(key, quoted + "\"");
  }
  Json& raw(const char* key, const std::string& v) {
    body_ += body_.empty() ? "" : ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// What one iteration observed, compared against the reference.
struct Observed {
  std::vector<std::uint64_t> dates;  ///< simulated dates, ps
  std::vector<std::uint64_t> sums;   ///< checksums
};

struct IterResult {
  bool traced = false;
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  std::uint64_t ops = 0;
  std::size_t workers = 0;
  bool ok = true;
  std::string error;
  Observed observed;
  KernelStats stats;
  std::string config;  ///< the resolved KernelConfig, as JSON
  // Model-side counters read through the public API once the run ends.
  std::uint64_t core_accesses = 0;
  std::uint64_t writer_blocks = 0;
  std::uint64_t reader_blocks = 0;
  std::uint64_t soc_fifo_accesses = 0;
  std::uint64_t noc_packets = 0;
  std::uint64_t noc_forwarded = 0;
  std::uint64_t tlm_bus_routed = 0;
  // Tracing (traced iterations only).
  std::uint64_t window_ns = 0;
  std::size_t active_lanes = 0;
  std::array<tdbench::KindTotals, tdbench::kKindCount> kinds{};
  std::uint64_t idle_ns = 0;
  std::array<std::vector<std::uint32_t>, tdbench::kSampleClasses> samples;

  void fail(const std::string& why) {
    if (ok) {
      error = why;
    }
    ok = false;
  }
};

std::string config_json(const Kernel& kernel) {
  const KernelConfig& c = kernel.config();
  Json j;
  j.u64("workers", c.workers.value_or(0))
      .u64("default_chunk_capacity", c.default_chunk_capacity.value_or(0))
      .u64("adaptive_quantum", c.adaptive_quantum.value_or(false) ? 1 : 0)
      .u64("quantum_trace_depth", c.quantum_trace_depth.value_or(0))
      .u64("lookahead_limit", c.lookahead_limit.value_or(0))
      .u64("delta_cycle_limit", c.delta_cycle_limit.value_or(0))
      .u64("wall_limit_ms", c.wall_limit_ms.value_or(0))
      .u64("pooled_stacks", c.pooled_stacks.value_or(false) ? 1 : 0)
      .u64("stack_guard", c.stack_guard.value_or(false) ? 1 : 0);
#ifdef TDSIM_ASAN_FIBERS
  j.u64("asan_fibers", 1);
#else
  j.u64("asan_fibers", 0);
#endif
#ifdef TDSIM_TSAN_FIBERS
  j.u64("tsan_fibers", 1);
#else
  j.u64("tsan_fibers", 0);
#endif
  return j.done();
}

/// Reads the books once the run has ended.
void finish(const Kernel& kernel, IterResult& r) {
  r.stats = kernel.stats();
  r.config = config_json(kernel);
  if (kernel.health() == tdsim::Health::Failed) {
    r.fail("kernel ended Failed");
  }
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Times run(): wall, CPU over all threads, and (traced) the lane windows.
template <bool Traced, typename Body>
void timed_run(IterResult& r, std::uint64_t setup_start, Body&& body) {
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  r.setup_s = static_cast<double>(t0 - setup_start) * 1e-9;
  if constexpr (Traced) {
    Tracer::instance().begin_window(t0);
  }
  {
    Span<Traced> span(Kind::KernelRun);
    body();
  }
  const std::uint64_t t1 = now_ns();
  r.cpu_s = cpu_seconds() - cpu0;
  r.run_s = static_cast<double>(t1 - t0) * 1e-9;
  if constexpr (Traced) {
    r.window_ns = t1 - t0;
    Tracer::instance().end_window(t1);
  }
}

/// Folds every lane's books into `r` (traced iterations, after run()).
void collect_trace(IterResult& r) {
  Tracer::instance().for_each_lane([&r](Lane& lane) {
    // A lane with no event but the window's own end did nothing this run.
    const bool active = lane.events() > 1;
    for (std::size_t k = 0; k < tdbench::kKindCount; ++k) {
      r.kinds[k].total_ns += lane.kinds()[k].total_ns;
      if (active) {
        r.kinds[k].self_ns += lane.kinds()[k].self_ns;
      }
    }
    if (active) {
      r.active_lanes++;
      r.idle_ns += lane.idle_ns();
    }
    if (lane.open_spans() != 0) {
      r.fail("tracer: a span is still open after run()");
    }
    for (std::size_t c = 0; c < tdbench::kSampleClasses; ++c) {
      r.samples[c].insert(r.samples[c].end(), lane.samples(c).begin(),
                          lane.samples(c).end());
    }
  });
}

/// The KernelStats invariants every run must satisfy.
void check_stats(IterResult& r) {
  const KernelStats& s = r.stats;
  DomainStats sum;
  std::uint64_t performed = 0;
  for (const DomainStats& d : s.domains) {
    DomainStats::for_each_counter(
        sum, d, [](std::uint64_t& a, const std::uint64_t& b) { a += b; });
    performed += d.syncs_performed();
    if (d.syncs_performed() + d.syncs_elided != d.sync_requests) {
      r.fail("stats: performed + elided != requests in domain " + d.name);
    }
  }
  bool domains_sum = true;
  DomainStats::for_each_counter(
      sum, s, [&domains_sum](std::uint64_t& a, const std::uint64_t& b) {
        domains_sum = domains_sum && a == b;
      });
  if (!domains_sum) {
    r.fail("stats: per-domain books do not sum to the aggregate");
  }
  if (performed != s.syncs_performed()) {
    r.fail("stats: per-cause syncs do not sum to syncs performed");
  }
  if (s.syncs_performed() + s.syncs_elided != s.sync_requests) {
    r.fail("stats: performed + elided != requests");
  }
}

// ---------------------------------------------------------------------------
// fifo_narrow
// ---------------------------------------------------------------------------

struct FifoNarrowInput {
  std::size_t depth = 4;
  std::uint64_t words = 0;
  std::uint64_t observe_every = 4096;
  std::uint64_t salt = 0;
  std::vector<std::uint8_t> producer_ns;  ///< per-word inc, ns
  std::vector<std::uint8_t> consumer_ns;
};

FifoNarrowInput make_fifo_narrow(std::uint64_t seed, bool tiny) {
  FifoNarrowInput in;
  in.words = tiny ? 8192 : (1 << 19);
  in.observe_every = tiny ? 512 : 4096;
  Rng rng{seed * 0x1000193ULL + 1};
  in.salt = rng.next();
  in.producer_ns.resize(in.words);
  in.consumer_ns.resize(in.words);
  // Rates drift in 256-word phases between producer-bound and
  // consumer-bound, so both the full and the empty blocking paths run.
  for (std::uint64_t i = 0; i < in.words; ++i) {
    const bool producer_slow = ((i >> 8) & 1) != 0;
    in.producer_ns[i] =
        static_cast<std::uint8_t>(1 + rng.below(producer_slow ? 6 : 4));
    in.consumer_ns[i] =
        static_cast<std::uint8_t>(1 + rng.below(producer_slow ? 4 : 6));
  }
  return in;
}

std::uint32_t narrow_word(std::uint64_t salt, std::uint64_t i) {
  return static_cast<std::uint32_t>(mix64(salt ^ i));
}

/// Reference = TDless: wait() annotations and a FIFO that synchronizes at
/// every access (one context switch per annotation and access).
template <bool Traced, bool Reference>
void fifo_narrow_iter(const FifoNarrowInput& in, IterResult& r) {
  using Fifo = std::conditional_t<Reference, SyncFifo<std::uint32_t>,
                                  SmartFifo<std::uint32_t>>;
  const std::uint64_t setup_start = now_ns();
  std::unique_ptr<Kernel> owner;
  {
    Span<Traced> span(Kind::KernelConstruct);
    owner = std::make_unique<Kernel>(pinned_config(0));
  }
  Kernel& kernel = *owner;
  Fifo fifo(kernel, "narrow", in.depth);
  std::uint32_t checksum = 0;
  std::vector<std::uint64_t> dates;
  dates.reserve(in.words / in.observe_every + 1);

  const auto delay = [&kernel](SyncDomain& domain, std::uint8_t n) {
    if constexpr (Reference) {
      kernel.wait(ns(n));
    } else {
      domain.inc(ns(n));
    }
  };
  {
    Span<Traced> span(Kind::KernelSpawn);
    kernel.spawn_thread("producer", [&] {
      SyncDomain& domain = kernel.current_domain();
      for (std::uint64_t i = 0; i < in.words; ++i) {
        delay(domain, in.producer_ns[i]);
        const std::uint32_t value = narrow_word(in.salt, i);
        Span<Traced> access(Kind::CoreWrite);
        if constexpr (Reference) {
          fifo.write(value);
        } else {
          const std::uint64_t before = fifo.writer_blocks();
          fifo.write(value);
          access.set_suspended(fifo.writer_blocks() != before);
        }
      }
    });
  }
  {
    Span<Traced> span(Kind::KernelSpawn);
    kernel.spawn_thread("consumer", [&] {
      SyncDomain& domain = kernel.current_domain();
      for (std::uint64_t i = 0; i < in.words; ++i) {
        std::uint32_t value = 0;
        {
          Span<Traced> access(Kind::CoreRead);
          if constexpr (Reference) {
            value = fifo.read();
          } else {
            const std::uint64_t before = fifo.reader_blocks();
            value = fifo.read();
            access.set_suspended(fifo.reader_blocks() != before);
          }
        }
        checksum = checksum * 31 + value;
        delay(domain, in.consumer_ns[i]);
        if ((i + 1) % in.observe_every == 0) {
          dates.push_back(domain.local_time_stamp().ps());
        }
      }
    });
  }
  timed_run<Traced>(r, setup_start, [&kernel] { kernel.run(); });

  std::uint32_t expected = 0;
  for (std::uint64_t i = 0; i < in.words; ++i) {
    expected = expected * 31 + narrow_word(in.salt, i);
  }
  if (checksum != expected) {
    r.fail("fifo_narrow: consumer checksum mismatch");
  }
  if (fifo.total_reads() != in.words) {
    r.fail("fifo_narrow: consumer did not drain the FIFO");
  }
  r.observed.dates = std::move(dates);
  r.observed.sums = {checksum};
  r.ops = in.words;
  r.core_accesses = fifo.total_writes() + fifo.total_reads();
  if constexpr (!Reference) {
    r.writer_blocks = fifo.writer_blocks();
    r.reader_blocks = fifo.reader_blocks();
  }
  finish(kernel, r);
}

// ---------------------------------------------------------------------------
// soc_casestudy
// ---------------------------------------------------------------------------

tdsim::soc::SocConfig make_soc(std::uint64_t seed, bool tiny) {
  Rng rng{seed * 0x51ed27ULL + 7};
  tdsim::soc::SocConfig config;
  config.mesh_columns = 4;
  config.mesh_rows = 4;
  config.streams = tiny ? 2 : 8;
  config.fifo_depth = 16;
  config.packet_words = 16;
  // Stream length and the control core's polling phase come from the
  // seed; the phase stays off the integer-ns grid the streams run on.
  config.words_per_stream = (tiny ? 1024 : 65536) + 16 * rng.below(16);
  config.poll_phase = Time::from_ps(100 + 100 * rng.below(9));
  return config;
}

template <bool Traced>
void soc_iter(tdsim::soc::SocConfig config, tdsim::soc::FifoFlavor flavor,
              IterResult& r) {
  config.flavor = flavor;
  const std::uint64_t setup_start = now_ns();
  std::unique_ptr<Kernel> owner;
  {
    Span<Traced> span(Kind::KernelConstruct);
    owner = std::make_unique<Kernel>(pinned_config(0));
  }
  Kernel& kernel = *owner;
  std::unique_ptr<tdsim::soc::SocPlatform> platform;
  {
    Span<Traced> span(Kind::SocConstruct);
    platform = std::make_unique<tdsim::soc::SocPlatform>(kernel, config);
  }
  Time end_date;
  timed_run<Traced>(r, setup_start, [&] {
    end_date = platform->run_to_completion();
  });

  if (!platform->all_streams_correct()) {
    r.fail("soc_casestudy: a stream checksum is wrong");
  }
  r.observed.dates = {end_date.ps(), platform->core().all_done_date().ps()};
  for (std::size_t i = 0; i < platform->accelerator_count(); ++i) {
    r.observed.dates.push_back(
        platform->accelerator(i).completion_date().ps());
  }
  for (std::size_t s = 0; s < config.streams; ++s) {
    r.observed.sums.push_back(platform->sink_checksum(s));
  }
  r.ops = config.streams * config.words_per_stream;
  r.soc_fifo_accesses = platform->total_fifo_accesses();
  r.core_accesses = r.soc_fifo_accesses;
  for (std::size_t i = 0; i < platform->network_interface_count(); ++i) {
    r.noc_packets += platform->network_interface(i).packets_sent();
  }
  r.noc_forwarded = platform->mesh().total_forwarded();
  // The control core is the bus's only initiator.
  r.tlm_bus_routed = platform->core().socket().transactions();
  finish(kernel, r);
  // The platform keeps its FIFOs private: count their blocks by the
  // synchronizations they caused instead.
  r.writer_blocks = r.stats.syncs(SyncCause::FifoFull);
  r.reader_blocks = r.stats.syncs(SyncCause::FifoEmpty);
}

// ---------------------------------------------------------------------------
// mesh_scale
// ---------------------------------------------------------------------------

struct MeshInput {
  std::size_t domains = 100;
  std::size_t procs = 10'000;
  std::uint64_t lives = 3;
  std::uint64_t min_steps = 900;
  std::uint64_t max_steps = 1100;
  std::size_t stack_bytes = 128 * 1024;
  std::uint64_t salt = 0;
  Time step = 10_ns;
  Time quantum = 100_ns;
};

MeshInput make_mesh(std::uint64_t seed, bool tiny) {
  MeshInput in;
  if (tiny) {
    in.domains = 9;
    in.procs = 180;
    in.min_steps = 90;
    in.max_steps = 110;
  }
  in.salt = mix64(seed * 0x2545f491ULL + 3);
  return in;
}

std::uint64_t mesh_steps(const MeshInput& in, std::size_t c, std::size_t slot,
                         std::uint64_t gen) {
  const std::uint64_t h =
      mix64(in.salt ^ (c * 0x10003ULL + slot) * 0x3f1ULL ^ (gen << 48));
  return in.min_steps + h % (in.max_steps - in.min_steps + 1);
}

std::size_t mesh_slots(const MeshInput& in, std::size_t c) {
  return in.procs / in.domains + (c < in.procs % in.domains ? 1 : 0);
}

template <bool Traced>
void mesh_iter(const MeshInput& in, std::size_t workers, IterResult& r) {
  const std::uint64_t setup_start = now_ns();
  std::unique_ptr<Kernel> owner;
  {
    Span<Traced> span(Kind::KernelConstruct);
    owner = std::make_unique<Kernel>(pinned_config(workers));
  }
  Kernel& kernel = *owner;

  struct Cluster {
    SyncDomain* domain = nullptr;
    std::uint64_t sink = 0;        ///< group-serialized checksum
    std::uint64_t steps_done = 0;
    std::uint64_t done_ps = 0;     ///< latest life's end date
  };
  std::vector<Cluster> clusters(in.domains);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    Span<Traced> span(Kind::SyncCreate);
    clusters[c].domain = &kernel.create_domain(
        {.name = "cl" + std::to_string(c), .quantum = in.quantum,
         .concurrent = true, .policy = std::nullopt, .delta_cycle_limit = 0});
  }
  // Decoupled neighbour links: nothing crosses them, so the clusters stay
  // separate concurrency groups, but every horizon derives lookahead
  // bounds over the whole mesh graph.
  const std::size_t rows = static_cast<std::size_t>(
      std::floor(std::sqrt(static_cast<double>(in.domains))));
  const std::size_t cols = (in.domains + rows - 1) / rows;
  for (std::size_t c = 0; c < in.domains; ++c) {
    if ((c % cols) + 1 < cols && c + 1 < in.domains) {
      Span<Traced> span(Kind::SchedLink);
      kernel.link_domains(*clusters[c].domain, *clusters[c + 1].domain, 1_us,
                          "mesh_x");
    }
    if (c + cols < in.domains) {
      Span<Traced> span(Kind::SchedLink);
      kernel.link_domains(*clusters[c].domain, *clusters[c + cols].domain,
                          1_us, "mesh_y");
    }
  }

  const Time life_span = Time::from_ps(in.max_steps * in.step.ps());
  std::function<void(std::size_t, std::size_t, std::uint64_t)> spawn_worker =
      [&kernel, &in, &clusters](std::size_t c, std::size_t slot,
                                std::uint64_t gen) {
        Cluster& cluster = clusters[c];
        ThreadOptions opts;
        opts.domain = cluster.domain;
        opts.stack_size = in.stack_bytes;
        const std::uint64_t steps = mesh_steps(in, c, slot, gen);
        const std::uint64_t seed = mix64(in.salt + c * 131 + slot * 7 + gen);
        Span<Traced> span(Kind::KernelSpawn);
        kernel.spawn_thread(
            "c" + std::to_string(c) + "_w" + std::to_string(slot) + "_g" +
                std::to_string(gen),
            [&kernel, &in, &cluster, steps, seed] {
              SyncDomain& domain = kernel.current_domain();
              std::uint64_t acc = seed;
              // A step is too short for a span of its own: one compute
              // span covers the steps between two quantum syncs.
              std::optional<Span<Traced>> compute;
              for (std::uint64_t s = 0; s < steps; ++s) {
                if constexpr (Traced) {
                  if (!compute) {
                    compute.emplace(Kind::ModelCompute);
                  }
                }
                acc = acc * 6364136223846793005ULL + s;
                if constexpr (Traced) {
                  domain.inc(in.step);
                  if (domain.needs_sync()) {
                    compute.reset();
                    Span<true> sync(Kind::SyncSync);
                    domain.sync(SyncCause::Quantum);
                  }
                } else {
                  domain.inc_and_sync_if_needed(in.step);
                }
              }
              compute.reset();
              cluster.sink = cluster.sink * 31 + acc;
              cluster.steps_done += steps;
              cluster.done_ps =
                  std::max(cluster.done_ps, domain.local_time_stamp().ps());
            },
            opts);
      };

  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const std::size_t slots = mesh_slots(in, c);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      spawn_worker(c, slot, 0);
    }
    if (in.lives > 1 && slots > 0) {
      // The churn manager respawns the cluster's next generation once the
      // previous one has had its span; spawns from process context land
      // in the manager's group, so the schedule stays deterministic.
      ThreadOptions opts;
      opts.domain = clusters[c].domain;
      Span<Traced> span(Kind::KernelSpawn);
      kernel.spawn_thread(
          "mgr" + std::to_string(c),
          [&kernel, &in, &spawn_worker, c, slots, life_span] {
            for (std::uint64_t gen = 1; gen < in.lives; ++gen) {
              {
                Span<Traced> wait(Kind::KernelWait);
                kernel.wait(life_span);
              }
              for (std::size_t slot = 0; slot < slots; ++slot) {
                spawn_worker(c, slot, gen);
              }
            }
          },
          opts);
    }
  }
  timed_run<Traced>(r, setup_start, [&kernel] { kernel.run(); });

  std::uint64_t expected_steps = 0;
  for (std::size_t c = 0; c < in.domains; ++c) {
    for (std::size_t slot = 0; slot < mesh_slots(in, c); ++slot) {
      for (std::uint64_t gen = 0; gen < in.lives; ++gen) {
        expected_steps += mesh_steps(in, c, slot, gen);
      }
    }
  }
  for (const Cluster& cluster : clusters) {
    r.ops += cluster.steps_done;
    r.observed.dates.push_back(cluster.done_ps);
    r.observed.sums.push_back(cluster.sink);
  }
  r.observed.dates.push_back(kernel.now().ps());
  if (r.ops != expected_steps) {
    r.fail("mesh_scale: a worker did not run all its steps");
  }
  r.workers = workers;
  finish(kernel, r);
}

// ---------------------------------------------------------------------------
// multidomain_wide
// ---------------------------------------------------------------------------

struct WideInput {
  std::size_t clusters = 8;
  std::uint64_t steps = 20'000;
  std::uint64_t stream_words = 2'000;
  std::uint64_t work = 2'000;  ///< spin iterations per step ("heavy")
  Time cpu_step = 10_ns;
  Time periph_step = 10_ns;
  Time cpu_quantum = 100_ns;
  Time periph_quantum = 1_us;
  std::uint64_t salt = 0;
  /// Per cluster, per stream word: DMA-side and sink-side incs, ns.
  std::vector<std::vector<std::uint8_t>> dma_ns;
  std::vector<std::vector<std::uint8_t>> sink_ns;
};

WideInput make_wide(std::uint64_t seed, bool tiny) {
  WideInput in;
  if (tiny) {
    in.clusters = 2;
    in.steps = 2'000;
    in.stream_words = 200;
    in.work = 50;
  }
  Rng rng{seed * 0x9e3779b1ULL + 11};
  in.salt = rng.next();
  in.dma_ns.resize(in.clusters);
  in.sink_ns.resize(in.clusters);
  for (std::size_t c = 0; c < in.clusters; ++c) {
    for (std::uint64_t i = 0; i < in.stream_words; ++i) {
      in.dma_ns[c].push_back(static_cast<std::uint8_t>(2 + rng.below(3)));
      in.sink_ns[c].push_back(static_cast<std::uint8_t>(3 + rng.below(3)));
    }
  }
  return in;
}

/// The model's own per-step computation: an integer hash chain.
std::uint64_t spin_work(std::uint64_t seed, std::uint64_t iters) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

template <bool Traced>
void wide_iter(const WideInput& in, std::size_t workers, IterResult& r) {
  const std::uint64_t setup_start = now_ns();
  std::unique_ptr<Kernel> owner;
  {
    Span<Traced> span(Kind::KernelConstruct);
    owner = std::make_unique<Kernel>(pinned_config(workers));
  }
  Kernel& kernel = *owner;

  struct Cluster {
    SyncDomain* cpu = nullptr;
    SyncDomain* periph = nullptr;
    bool cancelled = false;
    std::uint64_t observed_ps = 0;  ///< cpu worker's cancellation date
    std::unique_ptr<SmartFifo<std::uint32_t>> stream;
    std::uint32_t checksum = 0;
    std::uint64_t stream_done_ps = 0;
    std::uint64_t work_acc = 0;
    std::uint64_t steps_done = 0;
  };
  std::vector<Cluster> clusters(in.clusters);
  // Cancellation just past a cpu quantum boundary: the worst case for the
  // cpu domain's observation error (paper SII.A).
  const Time cancel_at = Time::from_ps(in.steps / 2 * in.cpu_step.ps() + 1000);

  // One step of a decoupled process: model compute, then the timing
  // annotation (quantum keeper).
  const auto step = [](SyncDomain& domain, Time dt, std::uint64_t& acc,
                       std::uint64_t work) {
    {
      Span<Traced> compute(Kind::ModelCompute);
      acc = spin_work(acc, work);
    }
    if constexpr (Traced) {
      domain.inc(dt);
      if (domain.needs_sync()) {
        Span<true> sync(Kind::SyncSync);
        domain.sync(SyncCause::Quantum);
      }
    } else {
      domain.inc_and_sync_if_needed(dt);
    }
  };

  for (std::size_t c = 0; c < clusters.size(); ++c) {
    Cluster& cluster = clusters[c];
    const std::string suffix = std::to_string(c);
    {
      Span<Traced> span(Kind::SyncCreate);
      cluster.cpu = &kernel.create_domain({.name = "cpu" + suffix,
                                           .quantum = in.cpu_quantum,
                                           .concurrent = true,
                                           .policy = std::nullopt,
                                           .delta_cycle_limit = 0});
    }
    {
      Span<Traced> span(Kind::SyncCreate);
      cluster.periph = &kernel.create_domain({.name = "periph" + suffix,
                                              .quantum = in.periph_quantum,
                                              .concurrent = true,
                                              .policy = std::nullopt,
                                              .delta_cycle_limit = 0});
    }
    // The stream merges the cluster's two domains into one concurrency
    // group; clusters stay independent groups for the workers.
    cluster.stream = std::make_unique<SmartFifo<std::uint32_t>>(
        kernel, "dma_stream" + suffix, 16);
    cluster.stream->declare_cell_latency(in.cpu_quantum);

    ThreadOptions cpu_opts;
    cpu_opts.domain = cluster.cpu;
    ThreadOptions periph_opts;
    periph_opts.domain = cluster.periph;
    const std::uint64_t seed = mix64(in.salt + c);
    {
      Span<Traced> span(Kind::KernelSpawn);
      kernel.spawn_thread("canceller" + suffix, [&kernel, &cluster, cancel_at] {
        {
          Span<Traced> wait(Kind::KernelWait);
          kernel.wait(cancel_at);
        }
        cluster.cancelled = true;
      }, cpu_opts);
    }
    {
      Span<Traced> span(Kind::KernelSpawn);
      kernel.spawn_thread("cpu" + suffix,
                          [&kernel, &in, &cluster, &step, seed] {
        SyncDomain& domain = kernel.current_domain();
        std::uint64_t acc = seed;
        std::uint64_t done = 0;
        for (; done < in.steps && !cluster.cancelled; ++done) {
          step(domain, in.cpu_step, acc, in.work);
        }
        cluster.observed_ps = domain.local_time_stamp().ps();
        cluster.work_acc += acc;
        cluster.steps_done += done;
      }, cpu_opts);
    }
    {
      Span<Traced> span(Kind::KernelSpawn);
      kernel.spawn_thread("periph" + suffix,
                          [&kernel, &in, &cluster, &step, seed] {
        SyncDomain& domain = kernel.current_domain();
        std::uint64_t acc = ~seed;
        for (std::uint64_t i = 0; i < in.steps; ++i) {
          step(domain, in.periph_step, acc, in.work);
        }
        cluster.work_acc += acc;
        cluster.steps_done += in.steps;
      }, periph_opts);
    }
    {
      Span<Traced> span(Kind::KernelSpawn);
      kernel.spawn_thread("dma" + suffix, [&kernel, &in, &cluster, c] {
        SyncDomain& domain = kernel.current_domain();
        SmartFifo<std::uint32_t>& fifo = *cluster.stream;
        for (std::uint64_t i = 0; i < in.stream_words; ++i) {
          domain.inc(ns(in.dma_ns[c][i]));
          const auto value = static_cast<std::uint32_t>(mix64(in.salt ^ i));
          Span<Traced> access(Kind::CoreWrite);
          const std::uint64_t before = fifo.writer_blocks();
          fifo.write(value);
          access.set_suspended(fifo.writer_blocks() != before);
        }
      }, periph_opts);
    }
    {
      Span<Traced> span(Kind::KernelSpawn);
      kernel.spawn_thread("stream_sink" + suffix,
                          [&kernel, &in, &cluster, c] {
        SyncDomain& domain = kernel.current_domain();
        SmartFifo<std::uint32_t>& fifo = *cluster.stream;
        for (std::uint64_t i = 0; i < in.stream_words; ++i) {
          std::uint32_t value = 0;
          {
            Span<Traced> access(Kind::CoreRead);
            const std::uint64_t before = fifo.reader_blocks();
            value = fifo.read();
            access.set_suspended(fifo.reader_blocks() != before);
          }
          cluster.checksum = cluster.checksum * 31 + value;
          domain.inc(ns(in.sink_ns[c][i]));
        }
        cluster.stream_done_ps = domain.local_time_stamp().ps();
      }, cpu_opts);
    }
  }
  timed_run<Traced>(r, setup_start, [&kernel] { kernel.run(); });

  std::uint32_t expected = 0;
  for (std::uint64_t i = 0; i < in.stream_words; ++i) {
    expected = expected * 31 + static_cast<std::uint32_t>(mix64(in.salt ^ i));
  }
  for (const Cluster& cluster : clusters) {
    if (cluster.checksum != expected) {
      r.fail("multidomain_wide: stream checksum mismatch");
    }
    r.ops += cluster.steps_done;
    r.core_accesses +=
        cluster.stream->total_writes() + cluster.stream->total_reads();
    r.writer_blocks += cluster.stream->writer_blocks();
    r.reader_blocks += cluster.stream->reader_blocks();
    r.observed.dates.push_back(cluster.observed_ps);
    r.observed.dates.push_back(cluster.stream_done_ps);
    r.observed.sums.push_back(cluster.checksum);
    r.observed.sums.push_back(cluster.work_acc);
  }
  r.observed.dates.push_back(kernel.now().ps());
  r.workers = workers;
  finish(kernel, r);
}

// ---------------------------------------------------------------------------
// Workload table
// ---------------------------------------------------------------------------

struct Workload {
  /// Runs one measured iteration (traced or not).
  std::function<void(IterResult&, bool traced)> measure;
  /// Runs the reference flavor once.
  std::function<void(IterResult&)> reference;
};

bool make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   Workload& w) {
  if (name == "fifo_narrow") {
    auto in = std::make_shared<FifoNarrowInput>(make_fifo_narrow(seed, tiny));
    w.measure = [in](IterResult& r, bool traced) {
      traced ? fifo_narrow_iter<true, false>(*in, r)
             : fifo_narrow_iter<false, false>(*in, r);
    };
    w.reference = [in](IterResult& r) {
      fifo_narrow_iter<false, true>(*in, r);
    };
  } else if (name == "soc_casestudy") {
    const tdsim::soc::SocConfig config = make_soc(seed, tiny);
    w.measure = [config](IterResult& r, bool traced) {
      traced ? soc_iter<true>(config, tdsim::soc::FifoFlavor::Smart, r)
             : soc_iter<false>(config, tdsim::soc::FifoFlavor::Smart, r);
    };
    w.reference = [config](IterResult& r) {
      soc_iter<false>(config, tdsim::soc::FifoFlavor::Sync, r);
    };
  } else if (name == "mesh_scale") {
    const MeshInput in = make_mesh(seed, tiny);
    w.measure = [in](IterResult& r, bool traced) {
      traced ? mesh_iter<true>(in, 3, r) : mesh_iter<false>(in, 3, r);
    };
    w.reference = [in](IterResult& r) { mesh_iter<false>(in, 0, r); };
  } else if (name == "multidomain_wide") {
    auto in = std::make_shared<WideInput>(make_wide(seed, tiny));
    w.measure = [in](IterResult& r, bool traced) {
      traced ? wide_iter<true>(*in, 3, r) : wide_iter<false>(*in, 3, r);
    };
    w.reference = [in](IterResult& r) { wide_iter<false>(*in, 0, r); };
  } else {
    return false;
  }
  return true;
}

void run_guarded(const std::function<void(IterResult&)>& body, IterResult& r) {
  try {
    body(r);
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  } catch (...) {
    r.fail("unknown exception");
  }
  if (r.ok) {
    check_stats(r);
  }
}

// ---------------------------------------------------------------------------
// Reference file and output
// ---------------------------------------------------------------------------

bool write_reference(const std::string& path, const Observed& o) {
  std::ofstream out(path);
  out << "dates";
  for (std::uint64_t d : o.dates) {
    out << ' ' << d;
  }
  out << "\nsums";
  for (std::uint64_t s : o.sums) {
    out << ' ' << s;
  }
  out << '\n';
  return static_cast<bool>(out);
}

bool read_reference(const std::string& path, Observed& o) {
  std::ifstream in(path);
  std::string line;
  bool have_dates = false;
  bool have_sums = false;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string tag;
    words >> tag;
    std::vector<std::uint64_t>* into = nullptr;
    if (tag == "dates") {
      into = &o.dates;
      have_dates = true;
    } else if (tag == "sums") {
      into = &o.sums;
      have_sums = true;
    } else {
      return false;
    }
    std::uint64_t v = 0;
    while (words >> v) {
      into->push_back(v);
    }
  }
  return have_dates && have_sums;
}

/// Percentile of whole-nanosecond durations, interpolated within the
/// 1 ns class that holds it (the grouped-data percentile): a sample of
/// value v stands for [v - 0.5, v + 0.5). A plain order statistic of a
/// tight distribution would read the same integer run after run; this
/// keeps the digits the sample actually carries.
double percentile(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  const std::size_t rank =
      std::min(v.size() - 1, static_cast<std::size_t>(target));
  const auto [first, last] = std::equal_range(v.begin(), v.end(), v[rank]);
  const auto below = static_cast<double>(first - v.begin());
  const auto ties = static_cast<double>(last - first);
  return static_cast<double>(v[rank]) - 0.5 + (target - below) / ties;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Counts that must repeat exactly for a given seed.
std::string exact_json(const IterResult& r) {
  const KernelStats& s = r.stats;
  Json j;
  j.u64("context_switches", s.context_switches)
      .u64("method_activations", s.method_activations)
      .u64("delta_cycles", s.delta_cycles)
      .u64("timed_waves", s.timed_waves)
      .u64("event_triggers", s.event_triggers)
      .u64("processes_spawned", s.processes_spawned)
      .u64("sync_requests", s.sync_requests)
      .u64("syncs_elided", s.syncs_elided)
      .u64("method_rearms", s.method_rearms)
      .u64("parallel_rounds", s.parallel_rounds)
      .u64("horizon_waits", s.horizon_waits)
      .u64("lookahead_advances", s.lookahead_advances)
      .u64("stack_acquires", s.stack_acquires)
      .u64("arena_reserved_bytes", s.arena_reserved_bytes)
      .u64("ops", r.ops)
      .u64("core_accesses", r.core_accesses)
      .u64("writer_blocks", r.writer_blocks)
      .u64("reader_blocks", r.reader_blocks)
      .u64("noc_packets", r.noc_packets)
      .u64("noc_forwarded", r.noc_forwarded)
      .u64("tlm_bus_routed", r.tlm_bus_routed);
  for (std::size_t c = 0; c < tdsim::kSyncCauseCount; ++c) {
    const std::string key =
        std::string("syncs_") + tdsim::to_string(static_cast<SyncCause>(c));
    j.u64(key.c_str(), s.syncs_by_cause[c]);
  }
  return j.done();
}

/// The per-layer metrics of one iteration; tracer-derived ones only when
/// the iteration was traced.
std::string layers_json(const IterResult& r) {
  const KernelStats& s = r.stats;
  const auto self_s = [&r](Kind k) {
    return static_cast<double>(r.kinds[static_cast<std::size_t>(k)].self_ns) *
           1e-9;
  };
  Json j;
  j.u64("kernel.delta_cycles", s.delta_cycles)
      .u64("kernel.method_activations", s.method_activations)
      .u64("kernel.timed_waves", s.timed_waves)
      .u64("kernel.spawns", s.processes_spawned)
      .u64("sync.requests", s.sync_requests)
      .u64("sync.performed", s.syncs_performed())
      .num("sync.elided_ratio", ratio(s.syncs_elided, s.sync_requests))
      .u64("sync.quantum", s.syncs(SyncCause::Quantum))
      .u64("sync.fifo_full", s.syncs(SyncCause::FifoFull))
      .u64("sync.fifo_empty", s.syncs(SyncCause::FifoEmpty))
      .u64("sync.sync_point", s.syncs(SyncCause::SyncPoint))
      .u64("sync.monitor", s.syncs(SyncCause::Monitor))
      .u64("sync.method_rearm", s.syncs(SyncCause::MethodRearm))
      .u64("sync.explicit", s.syncs(SyncCause::Explicit))
      .u64("core.accesses", r.core_accesses)
      .u64("core.writer_blocks", r.writer_blocks)
      .u64("core.reader_blocks", r.reader_blocks)
      .num("core.block_ratio",
           ratio(static_cast<double>(r.writer_blocks + r.reader_blocks),
                 static_cast<double>(r.core_accesses)))
      .u64("soc.fifo_accesses", r.soc_fifo_accesses)
      .u64("noc.packets", r.noc_packets)
      .u64("noc.forwarded", r.noc_forwarded)
      .u64("tlm.bus_routed", r.tlm_bus_routed)
      .u64("sched.parallel_rounds", s.parallel_rounds)
      .u64("sched.horizon_waits", s.horizon_waits)
      .u64("sched.lookahead_advances", s.lookahead_advances)
      .u64("sched.steals", s.steals)
      .num("sched.free_run_ratio",
           ratio(static_cast<double>(s.lookahead_advances),
                 static_cast<double>(s.timed_waves)))
      .u64("pool.stack_acquires", s.stack_acquires)
      .u64("pool.stack_recycles", s.stack_recycles)
      .num("pool.recycle_ratio",
           ratio(static_cast<double>(s.stack_recycles),
                 static_cast<double>(s.stack_acquires)))
      .u64("pool.arena_reserved_bytes", s.arena_reserved_bytes);
  if (r.traced) {
    const auto samples = [&r](tdbench::Sample cls) {
      return r.samples[static_cast<std::size_t>(cls)];
    };
    const auto suspend = samples(tdbench::Sample::Suspend);
    const auto access = samples(tdbench::Sample::Access);
    const auto spawn = samples(tdbench::Sample::Spawn);
    double spans_self = 0;
    for (std::size_t k = 0; k < tdbench::kKindCount; ++k) {
      if (static_cast<Kind>(k) != Kind::KernelRun) {
        spans_self += static_cast<double>(r.kinds[k].self_ns) * 1e-9;
      }
    }
    const double window_s = static_cast<double>(r.window_ns) * 1e-9;
    const double residual =
        self_s(Kind::KernelRun) + static_cast<double>(r.idle_ns) * 1e-9;
    const double model_busy =
        static_cast<double>(
            r.kinds[static_cast<std::size_t>(Kind::ModelCompute)].total_ns) *
        1e-9;
    j.num("kernel.suspend_ns_p50", percentile(suspend, 0.5))
        .num("kernel.suspend_ns_p99", percentile(suspend, 0.99))
        .num("kernel.spawn_ns_p50", percentile(spawn, 0.5))
        .num("kernel.spawn_ns_p99", percentile(spawn, 0.99))
        .num("kernel.residual_s", residual)
        .num("core.access_ns_p50", percentile(access, 0.5))
        .num("sched.model_busy_s", model_busy)
        .num("sched.efficiency",
             ratio(model_busy,
                   window_s * static_cast<double>(std::max<std::size_t>(
                                  1, r.workers))))
        // Bookkeeping the benchmark's tests check: per active lane, span
        // self times plus idle add up to the run() window.
        .num("trace.spans_self_s", spans_self)
        .num("trace.window_s", window_s)
        .u64("trace.lanes", r.active_lanes);
  }
  return j.done();
}

std::string iteration_json(const IterResult& r, bool cold,
                           const Observed& expect) {
  std::uint64_t date_error = 0;
  std::uint64_t dates_exact = 0;
  const std::uint64_t dates_total = expect.dates.size();
  const std::size_t n = std::min(expect.dates.size(), r.observed.dates.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = r.observed.dates[i];
    const std::uint64_t b = expect.dates[i];
    date_error += a > b ? a - b : b - a;
    dates_exact += a == b ? 1 : 0;
  }
  const bool sums_match = expect.sums == r.observed.sums &&
                          expect.dates.size() == r.observed.dates.size();
  const bool ok = r.ok && date_error == 0 && dates_exact == dates_total &&
                  sums_match;
  std::string error = r.error;
  if (r.ok && !ok) {
    error = "outputs differ from the reference";
  }
  Json j;
  j.u64("cold", cold ? 1 : 0)
      .u64("traced", r.traced ? 1 : 0)
      .u64("ok", ok ? 1 : 0)
      .str("error", error)
      .num("setup_s", r.setup_s)
      .num("run_s", r.run_s)
      .num("cpu_s", r.cpu_s)
      .u64("ops", r.ops)
      .u64("date_error_ps", date_error)
      .u64("dates_exact", dates_exact)
      .u64("dates_total", dates_total)
      .raw("exact", exact_json(r))
      .raw("layers", layers_json(r));
  return j.done();
}

/// Peak resident set of this process image. VmHWM, unlike ru_maxrss,
/// does not inherit the parent's peak across fork + exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N (--seconds S "
               "--expect FILE [--trace] | --reference FILE) "
               "[--size full|tiny]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* knob : kEnvKnobs) {
    unsetenv(knob);
  }
  std::string workload_name;
  std::string reference_path;
  std::string expect_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--size" && has_value) {
      const std::string size = argv[++i];
      if (size != "full" && size != "tiny") {
        return usage(argv[0]);
      }
      tiny = size == "tiny";
    } else if (arg == "--reference" && has_value) {
      reference_path = argv[++i];
    } else if (arg == "--expect" && has_value) {
      expect_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  Workload workload;
  if (!have_seed || !make_workload(workload_name, seed, tiny, workload)) {
    return usage(argv[0]);
  }

  if (!reference_path.empty()) {
    IterResult r;
    run_guarded(workload.reference, r);
    if (!r.ok) {
      std::fprintf(stderr, "reference run failed: %s\n", r.error.c_str());
      return 1;
    }
    if (!write_reference(reference_path, r.observed)) {
      std::fprintf(stderr, "cannot write %s\n", reference_path.c_str());
      return 1;
    }
    return 0;
  }

  if (seconds <= 0 || expect_path.empty()) {
    return usage(argv[0]);
  }
  Observed expect;
  if (!read_reference(expect_path, expect)) {
    std::fprintf(stderr, "cannot read reference %s\n", expect_path.c_str());
    return 1;
  }
  std::string config;

  std::string iterations;
  bool all_ok = true;
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0;; ++i) {
    const bool cold = i == 0;
    // Warm iterations alternate untraced / traced under --trace.
    const bool traced = trace && !cold && i % 2 == 0;
    IterResult r;
    r.traced = traced;
    if (traced) {
      Tracer::instance().for_each_lane([](Lane& l) { l.reset(); });
    }
    run_guarded([&](IterResult& res) { workload.measure(res, traced); }, r);
    if (traced) {
      collect_trace(r);
    }
    if (cold) {
      config = r.config;
    }
    const std::string one = iteration_json(r, cold, expect);
    all_ok = all_ok && one.find("\"ok\":1") != std::string::npos;
    iterations += (iterations.empty() ? "" : ",") + one;
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    // At least one warm iteration (two under --trace: one of each kind).
    if (elapsed >= seconds && i >= (trace ? 2u : 1u)) {
      break;
    }
  }

  Json out;
  out.str("workload", workload_name)
      .u64("seed", seed)
      .str("build_type", TDBENCH_BUILD_TYPE)
      .raw("config", config)
      .num("peak_rss_mb", peak_rss_mb())
      .raw("iterations", "[" + iterations + "]");
  std::printf("%s\n", out.done().c_str());
  return all_ok ? 0 : 1;
}

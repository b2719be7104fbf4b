// Microbenchmarks of individual FIFO operations (paper SIII.B/SIII.C):
//   * write/read transfer cost: Smart FIFO vs regular FIFO vs SyncFifo;
//   * is_empty / is_full: "two tests instead of one for a regular FIFO" --
//     constant time, marginally slower;
//   * get_size: "the Smart FIFO is slower than a regular FIFO for get_size
//     accesses" -- linear in the depth, acceptable because the monitor
//     interface is low-rate.
//
// Each benchmark runs a complete mini-simulation per batch; the reported
// rate is per FIFO operation.
//
// `bench_fifo_ops --json [--words N]` instead runs the deterministic
// chunked-vs-per-element transfer sweep and writes BENCH_fifo_ops.json:
// one row per (chunk_mode, depth), with a "wide" flag on the deep-FIFO
// rows. CI's perf-gate feeds the file to tools/check_bench.py, which
// holds the deterministic fields to the committed baseline and requires
// the chunked rows to beat the per-element rows on the wide sweep
// (--chunked-speedup). The sweep itself asserts chunked/element end-date
// equality before writing anything.
//
// The same file carries the fiber-switch cost rows (one row per
// "switch_path"): kSwitchRoundTrips round trips through two bench-local
// ping-pongs of the same shape, one on the kernel's fiber switch
// (kernel/fiber_context.h) and one on glibc's swapcontext, the switch the
// kernel used before its hand-written x86-64 one. check_bench.py requires
// the fiber path to be at least 3x faster per round trip. A third row times
// as many thread resumes through the kernel -- a thread suspending in
// wait() and being resumed by the scheduler -- for reference only.
#include <benchmark/benchmark.h>
#include <ucontext.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/arbiter.h"
#include "kernel/sync_domain.h"
#include "core/smart_fifo.h"
#include "core/sync_fifo.h"
#include "kernel/fiber_context.h"
#include "kernel/kernel.h"

namespace {

using tdsim::Kernel;
using tdsim::SmartFifo;
using tdsim::SyncFifo;
using tdsim::Time;
using tdsim::UntimedFifo;
using namespace tdsim::time_literals;

constexpr std::uint64_t kWordsPerBatch = 1 << 14;

/// Producer/consumer transfer through any FifoInterface; producer and
/// consumer are decoupled threads annotating 3 ns / 2 ns per word.
template <typename FifoT>
void transfer_batch(std::size_t depth, std::uint64_t words, bool decoupled) {
  Kernel kernel;
  FifoT fifo(kernel, "bench.fifo", depth);
  kernel.spawn_thread("producer", [&] {
    for (std::uint64_t i = 0; i < words; ++i) {
      if (decoupled) {
        kernel.sync_domain().inc(3_ns);
      } else {
        tdsim::wait(3_ns);
      }
      fifo.write(static_cast<std::uint32_t>(i));
    }
  });
  kernel.spawn_thread("consumer", [&] {
    std::uint32_t sum = 0;
    for (std::uint64_t i = 0; i < words; ++i) {
      sum += fifo.read();
      if (decoupled) {
        kernel.sync_domain().inc(2_ns);
      } else {
        tdsim::wait(2_ns);
      }
    }
    benchmark::DoNotOptimize(sum);
  });
  kernel.run();
}

void BM_TransferSmart(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    transfer_batch<SmartFifo<std::uint32_t>>(depth, kWordsPerBatch, true);
  }
  state.SetItemsProcessed(state.iterations() * kWordsPerBatch * 2);
}
BENCHMARK(BM_TransferSmart)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_TransferSyncPerAccess(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    transfer_batch<SyncFifo<std::uint32_t>>(depth, kWordsPerBatch, true);
  }
  state.SetItemsProcessed(state.iterations() * kWordsPerBatch * 2);
}
BENCHMARK(BM_TransferSyncPerAccess)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_TransferRegularUntimed(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    transfer_batch<UntimedFifo<std::uint32_t>>(depth, kWordsPerBatch, true);
  }
  state.SetItemsProcessed(state.iterations() * kWordsPerBatch * 2);
}
BENCHMARK(BM_TransferRegularUntimed)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

/// is_empty on a Smart FIFO: constant-time, two tests.
void BM_IsEmptySmart(benchmark::State& state) {
  constexpr std::uint64_t kQueries = 1 << 16;
  for (auto _ : state) {
    Kernel kernel;
    SmartFifo<std::uint32_t> fifo(kernel, "bench.fifo", 64);
    kernel.spawn_thread("prober", [&] {
      fifo.write(1);
      bool acc = false;
      for (std::uint64_t i = 0; i < kQueries; ++i) {
        acc ^= fifo.is_empty();
        kernel.sync_domain().inc(1_ns);
      }
      benchmark::DoNotOptimize(acc);
      benchmark::DoNotOptimize(fifo.read());
    });
    kernel.run();
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_IsEmptySmart);

/// is_empty (empty()) on a regular FIFO: one test.
void BM_IsEmptyRegular(benchmark::State& state) {
  constexpr std::uint64_t kQueries = 1 << 16;
  for (auto _ : state) {
    Kernel kernel;
    UntimedFifo<std::uint32_t> fifo(kernel, "bench.fifo", 64);
    kernel.spawn_thread("prober", [&] {
      fifo.write(1);
      bool acc = false;
      for (std::uint64_t i = 0; i < kQueries; ++i) {
        acc ^= fifo.is_empty();
        kernel.sync_domain().inc(1_ns);
      }
      benchmark::DoNotOptimize(acc);
      benchmark::DoNotOptimize(fifo.read());
    });
    kernel.run();
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_IsEmptyRegular);

/// get_size on a half-full Smart FIFO: O(depth) reconstruction from the
/// per-cell date pairs.
void BM_GetSizeSmart(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kQueries = 1 << 12;
  for (auto _ : state) {
    Kernel kernel;
    SmartFifo<std::uint32_t> fifo(kernel, "bench.fifo", depth);
    kernel.spawn_thread("monitor", [&] {
      for (std::size_t i = 0; i < depth / 2; ++i) {
        fifo.write(static_cast<std::uint32_t>(i));
      }
      std::size_t acc = 0;
      for (std::uint64_t i = 0; i < kQueries; ++i) {
        acc += fifo.get_size();
      }
      benchmark::DoNotOptimize(acc);
    });
    kernel.run();
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_GetSizeSmart)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

/// Size query on a regular FIFO: O(1).
void BM_GetSizeRegular(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kQueries = 1 << 12;
  for (auto _ : state) {
    Kernel kernel;
    UntimedFifo<std::uint32_t> fifo(kernel, "bench.fifo", depth);
    kernel.spawn_thread("monitor", [&] {
      for (std::size_t i = 0; i < depth / 2; ++i) {
        fifo.write(static_cast<std::uint32_t>(i));
      }
      std::size_t acc = 0;
      for (std::uint64_t i = 0; i < kQueries; ++i) {
        acc += fifo.get_size();
      }
      benchmark::DoNotOptimize(acc);
    });
    kernel.run();
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_GetSizeRegular)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

/// Arbitrated access (ablation): the WriteArbiter/ReadArbiter synchronize
/// every access to keep side dates monotone across multiple clients --
/// "decoupling cannot be preserved across an arbitration point". Expect
/// sync-per-access performance even on a Smart FIFO.
void BM_TransferSmartArbitrated(benchmark::State& state) {
  for (auto _ : state) {
    Kernel kernel;
    SmartFifo<std::uint32_t> fifo(kernel, "bench.fifo", 16);
    tdsim::WriteArbiter<std::uint32_t> write_side(fifo);
    tdsim::ReadArbiter<std::uint32_t> read_side(fifo);
    kernel.spawn_thread("producer", [&] {
      for (std::uint64_t i = 0; i < kWordsPerBatch; ++i) {
        kernel.sync_domain().inc(3_ns);
        write_side.write(static_cast<std::uint32_t>(i));
      }
    });
    kernel.spawn_thread("consumer", [&] {
      std::uint32_t sum = 0;
      for (std::uint64_t i = 0; i < kWordsPerBatch; ++i) {
        sum += read_side.read();
        kernel.sync_domain().inc(2_ns);
      }
      benchmark::DoNotOptimize(sum);
    });
    kernel.run();
  }
  state.SetItemsProcessed(state.iterations() * kWordsPerBatch * 2);
}
BENCHMARK(BM_TransferSmartArbitrated);

/// Cost of the side-ordering runtime check (ablation: it is on by default).
void BM_TransferSmartNoOrderCheck(benchmark::State& state) {
  for (auto _ : state) {
    Kernel kernel;
    SmartFifo<std::uint32_t> fifo(kernel, "bench.fifo", 16);
    fifo.set_side_order_checking(false);
    kernel.spawn_thread("producer", [&] {
      for (std::uint64_t i = 0; i < kWordsPerBatch; ++i) {
        kernel.sync_domain().inc(3_ns);
        fifo.write(static_cast<std::uint32_t>(i));
      }
    });
    kernel.spawn_thread("consumer", [&] {
      std::uint32_t sum = 0;
      for (std::uint64_t i = 0; i < kWordsPerBatch; ++i) {
        sum += fifo.read();
        kernel.sync_domain().inc(2_ns);
      }
      benchmark::DoNotOptimize(sum);
    });
    kernel.run();
  }
  state.SetItemsProcessed(state.iterations() * kWordsPerBatch * 2);
}
BENCHMARK(BM_TransferSmartNoOrderCheck);

// ---------------------------------------------------------------------
// --json: deterministic chunked-vs-per-element sweep (perf-gated by CI)
// ---------------------------------------------------------------------

struct SweepResult {
  double wall_seconds = 0;
  /// The data-path dates the chunked mode must reproduce bit-exactly:
  /// each side's local date after its last transfer. (The kernel's *end*
  /// date is not compared across modes -- it includes trailing
  /// external-view notifications nobody observes, whose schedule is
  /// legitimately batched in chunked mode.)
  Time producer_end;
  Time consumer_end;
  tdsim::KernelStats stats;
  std::uint64_t writer_blocks = 0;
  std::uint64_t reader_blocks = 0;
};

/// One decoupled producer/consumer transfer, pinned to the given chunk
/// capacity (1 = per-element, environment-proof against TDSIM_CHUNKED).
SweepResult transfer_sweep(std::size_t depth, std::uint64_t words,
                           std::size_t chunk_capacity) {
  Kernel kernel;
  SmartFifo<std::uint32_t> fifo(kernel, "bench.fifo", depth);
  fifo.set_chunk_capacity(chunk_capacity);
  SweepResult result;
  kernel.spawn_thread("producer", [&] {
    for (std::uint64_t i = 0; i < words; ++i) {
      kernel.sync_domain().inc(3_ns);
      fifo.write(static_cast<std::uint32_t>(i));
    }
    result.producer_end = kernel.sync_domain().local_time_stamp();
  });
  kernel.spawn_thread("consumer", [&] {
    std::uint32_t sum = 0;
    for (std::uint64_t i = 0; i < words; ++i) {
      sum += fifo.read();
      kernel.sync_domain().inc(2_ns);
    }
    benchmark::DoNotOptimize(sum);
    result.consumer_end = kernel.sync_domain().local_time_stamp();
  });
  const auto start = std::chrono::steady_clock::now();
  kernel.run();
  const auto stop = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  result.stats = kernel.stats();
  result.writer_blocks = fifo.writer_blocks();
  result.reader_blocks = fifo.reader_blocks();
  return result;
}

void add_sweep_row(benchjson::Report& report, const char* mode,
                   std::size_t depth, bool wide, std::uint64_t words,
                   const SweepResult& r) {
  report.row()
      .add("chunk_mode", std::string(mode))
      .add("depth", static_cast<std::uint64_t>(depth))
      .add("wide", static_cast<std::uint64_t>(wide ? 1 : 0))
      .add("words", words)
      .add("wall_seconds", r.wall_seconds)
      .add("producer_end_ps", r.producer_end.ps())
      .add("consumer_end_ps", r.consumer_end.ps())
      .add("context_switches", r.stats.context_switches)
      .add("delta_cycles", r.stats.delta_cycles)
      .add("writer_blocks", r.writer_blocks)
      .add("reader_blocks", r.reader_blocks)
      .add("syncs_fifo_full", r.stats.syncs(tdsim::SyncCause::FifoFull))
      .add("syncs_fifo_empty", r.stats.syncs(tdsim::SyncCause::FifoEmpty));
}

// ---------------------------------------------------------------------
// --json: fiber-switch cost rows (perf-gated by CI)
// ---------------------------------------------------------------------

/// Sized so the swapcontext reference takes over 0.1 s, twice
/// check_bench.py's noise floor, even where a swapcontext round trip costs
/// only ~200 ns.
constexpr std::uint64_t kSwitchRoundTrips = 1 << 20;

/// kSwitchRoundTrips thread resumes through the kernel: each is a switch
/// into the thread, a wait(1 ns) and the switch back to the scheduler.
double kernel_round_trips_wall(std::uint64_t round_trips,
                               std::uint64_t& context_switches) {
  Kernel kernel;
  kernel.spawn_thread("ping", [&] {
    for (std::uint64_t i = 0; i < round_trips; ++i) {
      tdsim::wait(1_ns);
    }
  });
  const auto start = std::chrono::steady_clock::now();
  kernel.run();
  const auto stop = std::chrono::steady_clock::now();
  context_switches = kernel.stats().context_switches;
  return std::chrono::duration<double>(stop - start).count();
}

ucontext_t g_driver_context;
ucontext_t g_pong_context;

void pong() {
  for (;;) {
    swapcontext(&g_pong_context, &g_driver_context);
  }
}

/// A bare swapcontext ping-pong between the calling thread and one fiber:
/// no scheduler work at all, only the two switches (each with its
/// signal-mask system call).
double swapcontext_round_trips_wall(std::uint64_t round_trips) {
  std::vector<char> stack(64 * 1024);
  if (getcontext(&g_pong_context) != 0) {
    std::perror("getcontext");
    std::exit(1);
  }
  g_pong_context.uc_stack.ss_sp = stack.data();
  g_pong_context.uc_stack.ss_size = stack.size();
  g_pong_context.uc_link = nullptr;
  makecontext(&g_pong_context, &pong, 0);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < round_trips; ++i) {
    swapcontext(&g_driver_context, &g_pong_context);
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

tdsim::fiber::Context g_fiber_driver;
tdsim::fiber::Context g_fiber_pong;

void fiber_pong(void*) {
  for (;;) {
    tdsim::fiber::swap(g_fiber_pong, g_fiber_driver);
  }
}

/// The same ping-pong on the kernel's fiber switch.
double fiber_round_trips_wall(std::uint64_t round_trips) {
  std::vector<char> stack(64 * 1024);
  tdsim::fiber::make_frame(g_fiber_pong, stack.data(), stack.size(),
                           &fiber_pong, nullptr);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < round_trips; ++i) {
    tdsim::fiber::swap(g_fiber_driver, g_fiber_pong);
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

void add_switch_rows(benchjson::Report& report) {
  std::uint64_t context_switches = 0;
  const double kernel_wall =
      kernel_round_trips_wall(kSwitchRoundTrips, context_switches);
  const double swapcontext_wall =
      swapcontext_round_trips_wall(kSwitchRoundTrips);
  const double fiber_wall = fiber_round_trips_wall(kSwitchRoundTrips);
  const double per_trip = 1e9 / static_cast<double>(kSwitchRoundTrips);
  std::printf("\nfiber switch cost: %llu round trips\n",
              static_cast<unsigned long long>(kSwitchRoundTrips));
  std::printf("%12s | %8s | %8s\n", "path", "wall[s]", "ns/trip");
  std::printf("%12s | %8.3f | %8.1f\n", "kernel", kernel_wall,
              kernel_wall * per_trip);
  std::printf("%12s | %8.3f | %8.1f\n", "swapcontext", swapcontext_wall,
              swapcontext_wall * per_trip);
  std::printf("%12s | %8.3f | %8.1f\n", "fiber", fiber_wall,
              fiber_wall * per_trip);
  report.row()
      .add("switch_path", std::string("kernel"))
      .add("round_trips", kSwitchRoundTrips)
      .add("context_switches", context_switches)
      .add("wall_seconds", kernel_wall)
      .add("wall_ns_per_round_trip", kernel_wall * per_trip);
  report.row()
      .add("switch_path", std::string("swapcontext"))
      .add("round_trips", kSwitchRoundTrips)
      .add("wall_seconds", swapcontext_wall)
      .add("wall_ns_per_round_trip", swapcontext_wall * per_trip);
  report.row()
      .add("switch_path", std::string("fiber"))
      .add("round_trips", kSwitchRoundTrips)
      .add("wall_seconds", fiber_wall)
      .add("wall_ns_per_round_trip", fiber_wall * per_trip);
}

int json_main(std::uint64_t words) {
  constexpr std::size_t kChunkCapacity = 16;
  constexpr std::size_t kDepths[] = {4, 64, 256};
  benchjson::Report report("fifo_ops");
  std::printf("chunked-vs-element transfer sweep: %llu words per run\n",
              static_cast<unsigned long long>(words));
  std::printf("%7s | %12s %12s | %9s | %s\n", "depth", "element[s]",
              "chunked[s]", "el/ch", "dates");
  bool all_ok = true;
  for (std::size_t depth : kDepths) {
    const bool wide = depth >= 64;
    const SweepResult element = transfer_sweep(depth, words, 1);
    const SweepResult chunked = transfer_sweep(depth, words, kChunkCapacity);
    const bool dates_equal =
        element.producer_end == chunked.producer_end &&
        element.consumer_end == chunked.consumer_end &&
        element.writer_blocks == chunked.writer_blocks &&
        element.reader_blocks == chunked.reader_blocks;
    all_ok = all_ok && dates_equal;
    std::printf("%7zu | %12.3f %12.3f | %9.2f | %s\n", depth,
                element.wall_seconds, chunked.wall_seconds,
                element.wall_seconds / chunked.wall_seconds,
                dates_equal ? "equal" : "MISMATCH");
    add_sweep_row(report, "element", depth, wide, words, element);
    add_sweep_row(report, "chunked", depth, wide, words, chunked);
  }
  if (!all_ok) {
    std::fprintf(stderr,
                 "ERROR: chunked/element date or block-count mismatch\n");
    return 1;
  }
  add_switch_rows(report);
  return report.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit_json = false;
  std::uint64_t words = 1 << 19;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
    } else if (std::strcmp(argv[i], "--words") == 0 && i + 1 < argc) {
      words = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  if (emit_json) {
    return json_main(words);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Mutation testing (paper SIV.A): "we select a line in the Smart FIFO
// implementation, we modify something, we run the test suite again and
// check that at least one test fails". Here every mutation is a runtime
// hook (core/mutations.h); for each one we run a small battery of
// dual-mode scenarios and assert that at least one of them detects the
// mutation -- i.e. the sorted traces diverge from the reference, or the
// run errors out.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/mutations.h"
#include "core/smart_fifo.h"
#include "kernel/kernel.h"
#include "kernel/report.h"
#include "trace/scenario.h"

namespace tdsim {
namespace {

using trace::Mode;
using trace::Scenario;
using trace::ScenarioEnv;

/// The detection battery: scenarios exercising blocking paths, the
/// non-blocking guarded pattern, and the monitor interface.
std::vector<Scenario> detection_battery() {
  std::vector<Scenario> battery;

  // Producer/consumer over depth 1 and 4 with both rate orderings.
  struct Rate {
    std::size_t depth;
    Time wp, rp;
  };
  for (const Rate& r : {Rate{1, 20_ns, 15_ns}, Rate{4, 2_ns, 30_ns},
                        Rate{4, 30_ns, 2_ns}, Rate{2, 10_ns, 10_ns}}) {
    battery.push_back([r](ScenarioEnv& env) {
      auto& fifo = env.fifo("f", r.depth);
      env.kernel().spawn_thread("writer", [&env, &fifo, r] {
        for (int i = 0; i < 20; ++i) {
          fifo.write(i);
          env.log("wrote", static_cast<std::uint64_t>(i));
          env.delay(r.wp);
        }
      });
      env.kernel().spawn_thread("reader", [&env, &fifo, r] {
        for (int i = 0; i < 20; ++i) {
          env.delay(r.rp);
          env.log("read", static_cast<std::uint64_t>(fifo.read()));
        }
      });
    });
  }

  // Monitor polling during traffic (catches get_size mutations).
  battery.push_back([](ScenarioEnv& env) {
    auto& fifo = env.fifo("f", 3);
    env.kernel().spawn_thread("writer", [&env, &fifo] {
      for (int i = 0; i < 15; ++i) {
        fifo.write(i);
        env.delay(10_ns);
      }
    });
    env.kernel().spawn_thread("reader", [&env, &fifo] {
      for (int i = 0; i < 15; ++i) {
        env.delay(17_ns);
        env.log("read", static_cast<std::uint64_t>(fifo.read()));
      }
    });
    env.kernel().spawn_thread("monitor", [&env, &fifo] {
      for (int i = 0; i < 40; ++i) {
        env.kernel().wait(Time::from_ps(7001));
        env.log("size", fifo.get_size());
      }
    });
  });

  // Method reader with the guarded non-blocking pattern (catches is_empty
  // and delayed-notification mutations).
  battery.push_back([](ScenarioEnv& env) {
    auto& fifo = env.fifo("f", 3);
    env.kernel().spawn_thread("writer", [&env, &fifo] {
      for (int i = 0; i < 12; ++i) {
        fifo.write(i);
        env.delay(9_ns);
      }
    });
    auto count = std::make_shared<int>(0);
    env.kernel().spawn_method("reader", [&env, &fifo, count] {
      while (*count < 12) {
        if (fifo.is_empty()) {
          env.kernel().next_trigger(fifo.not_empty_event());
          return;
        }
        env.log("read", static_cast<std::uint64_t>(fifo.read()));
        (*count)++;
      }
    });
  });

  // Polling consumer: a method samples is_empty() on a fixed cadence and
  // logs the boolean itself, then reads at most one item per poll. The
  // sampled external view must match the reference FIFO's real emptiness
  // (catches naive_is_empty even when read() would self-correct dates).
  battery.push_back([](ScenarioEnv& env) {
    auto& fifo = env.fifo("f", 3);
    env.kernel().spawn_thread("writer", [&env, &fifo] {
      for (int i = 0; i < 10; ++i) {
        fifo.write(i);
        env.delay(11_ns);
      }
    });
    auto polls = std::make_shared<int>(0);
    env.kernel().spawn_method("poller", [&env, &fifo, polls] {
      if ((*polls)++ >= 40) {
        return;
      }
      const bool empty = fifo.is_empty();
      env.log("empty", empty ? 1 : 0);
      if (!empty) {
        env.log("read", static_cast<std::uint64_t>(fifo.read()));
      }
      env.kernel().next_trigger(Time::from_ps(5001));
    });
  });

  // Polling producer: a method samples is_full() and writes when space is
  // really available (catches naive_is_full).
  battery.push_back([](ScenarioEnv& env) {
    auto& fifo = env.fifo("f", 2);
    auto next = std::make_shared<int>(0);
    auto polls = std::make_shared<int>(0);
    env.kernel().spawn_method("poller", [&env, &fifo, next, polls] {
      if ((*polls)++ >= 40 || *next >= 10) {
        return;
      }
      const bool full = fifo.is_full();
      env.log("full", full ? 1 : 0);
      if (!full) {
        fifo.write((*next)++);
      }
      env.kernel().next_trigger(Time::from_ps(5001));
    });
    env.kernel().spawn_thread("reader", [&env, &fifo] {
      for (int i = 0; i < 10; ++i) {
        env.delay(23_ns);
        env.log("read", static_cast<std::uint64_t>(fifo.read()));
      }
    });
  });

  // Method writer guarded by is_full (catches is_full mutations).
  battery.push_back([](ScenarioEnv& env) {
    auto& fifo = env.fifo("f", 2);
    auto next = std::make_shared<int>(0);
    env.kernel().spawn_method("writer", [&env, &fifo, next] {
      while (*next < 12) {
        if (fifo.is_full()) {
          env.kernel().next_trigger(fifo.not_full_event());
          return;
        }
        fifo.write((*next)++);
      }
    });
    env.kernel().spawn_thread("reader", [&env, &fifo] {
      for (int i = 0; i < 12; ++i) {
        env.delay(21_ns);
        env.log("read", static_cast<std::uint64_t>(fifo.read()));
      }
    });
  });

  return battery;
}

/// The chunk capacities every mutation must be caught at: per-element
/// transfers, and chunked ones (the hooks sit on the one data path, so a
/// mutant may not hide behind batched publication).
constexpr std::size_t kChunkCapacities[] = {0, 16};

/// Returns true when at least one battery scenario detects the mutation:
/// its mutated SmartDecoupled trace differs from the Reference trace, or
/// the mutated run raises a simulation error. Every FIFO of both runs is
/// built at `chunk_capacity`.
bool mutation_detected(const SmartFifoMutations& mutations,
                       std::size_t chunk_capacity) {
  for (const Scenario& inner : detection_battery()) {
    // Guard against delta-cycle livelock (e.g. un-delayed notifications
    // re-triggering a guarded method forever at the same date).
    const Scenario scenario = [&inner, chunk_capacity](ScenarioEnv& env) {
      env.kernel().set_delta_cycle_limit(100000);
      env.kernel().set_default_chunk_capacity(chunk_capacity);
      inner(env);
    };
    auto reference = trace::run_scenario(scenario, Mode::Reference);
    try {
      // Bound the run: some mutations deadlock the simulation (that also
      // counts as detection, seen as a short/empty trace).
      auto mutated = trace::run_scenario(scenario, Mode::SmartDecoupled,
                                         &mutations, 1_ms);
      if (trace::compare_sorted(reference->recorder(), mutated->recorder())
              .has_value()) {
        return true;
      }
    } catch (const SimulationError&) {
      return true;
    }
  }
  return false;
}

/// Expects `mutations` to be caught at every chunk capacity.
void expect_caught(const SmartFifoMutations& mutations) {
  for (std::size_t capacity : kChunkCapacities) {
    EXPECT_TRUE(mutation_detected(mutations, capacity))
        << "escaped at chunk capacity " << capacity;
  }
}

/// Sanity: with no mutation, the battery must pass everywhere.
TEST(Mutation, NoMutationPassesEntireBattery) {
  SmartFifoMutations none;
  EXPECT_FALSE(none.any());
  for (std::size_t capacity : kChunkCapacities) {
    EXPECT_FALSE(mutation_detected(none, capacity))
        << "false alarm at chunk capacity " << capacity;
  }
}

/// The capacity-16 input is live: a mutation-injected FIFO takes the
/// kernel's default chunk capacity like any other, so the battery above
/// runs its mutants through chunked publication.
TEST(Mutation, MutatedFifoAdoptsTheKernelChunkCapacity) {
  Kernel k;
  k.set_default_chunk_capacity(16);
  SmartFifoMutations m;
  m.skip_writer_time_bump = true;
  SmartFifo<int> fifo(k, "f", 4, &m);
  EXPECT_EQ(fifo.chunk_capacity(), 16u);
}

TEST(Mutation, SkipWriterTimeBumpIsCaught) {
  SmartFifoMutations m;
  m.skip_writer_time_bump = true;
  expect_caught(m);
}

TEST(Mutation, SkipReaderTimeBumpIsCaught) {
  SmartFifoMutations m;
  m.skip_reader_time_bump = true;
  expect_caught(m);
}

TEST(Mutation, SkipInsertionDateIsCaught) {
  SmartFifoMutations m;
  m.skip_insertion_date = true;
  expect_caught(m);
}

TEST(Mutation, SkipFreeingDateIsCaught) {
  SmartFifoMutations m;
  m.skip_freeing_date = true;
  expect_caught(m);
}

TEST(Mutation, NaiveIsEmptyIsCaught) {
  SmartFifoMutations m;
  m.naive_is_empty = true;
  expect_caught(m);
}

TEST(Mutation, NaiveIsFullIsCaught) {
  SmartFifoMutations m;
  m.naive_is_full = true;
  expect_caught(m);
}

TEST(Mutation, UndelayedExternalEventsIsCaught) {
  SmartFifoMutations m;
  m.undelayed_external_events = true;
  expect_caught(m);
}

TEST(Mutation, NaiveGetSizeIsCaught) {
  SmartFifoMutations m;
  m.naive_get_size = true;
  expect_caught(m);
}

TEST(Mutation, SkipSyncOnBlockIsCaught) {
  SmartFifoMutations m;
  m.skip_sync_on_block = true;
  expect_caught(m);
}

}  // namespace
}  // namespace tdsim

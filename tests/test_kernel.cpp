// Scheduler semantics: thread processes, method processes, wait, time
// advance, initialization, stop, teardown unwinding.
#include "kernel/kernel.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <deque>
#include <string>
#include <vector>

#include "kernel/report.h"

namespace tdsim {
namespace {

TEST(Kernel, EmptyKernelRunsToCompletion) {
  Kernel k;
  k.run();
  EXPECT_EQ(k.now(), Time{});
  EXPECT_EQ(k.stats().context_switches, 0u);
}

TEST(Kernel, ThreadRunsAtInitialization) {
  Kernel k;
  bool ran = false;
  k.spawn_thread("t", [&] { ran = true; });
  k.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(k.stats().context_switches, 1u);
}

TEST(Kernel, WaitAdvancesTime) {
  Kernel k;
  std::vector<Time> stamps;
  k.spawn_thread("t", [&] {
    stamps.push_back(k.now());
    k.wait(10_ns);
    stamps.push_back(k.now());
    k.wait(5_ns);
    stamps.push_back(k.now());
  });
  k.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], Time{});
  EXPECT_EQ(stamps[1], 10_ns);
  EXPECT_EQ(stamps[2], 15_ns);
  EXPECT_EQ(k.now(), 15_ns);
}

TEST(Kernel, TwoThreadsInterleaveByTime) {
  Kernel k;
  std::vector<std::string> order;
  k.spawn_thread("a", [&] {
    order.push_back("a0");
    k.wait(10_ns);
    order.push_back("a10");
    k.wait(20_ns);
    order.push_back("a30");
  });
  k.spawn_thread("b", [&] {
    order.push_back("b0");
    k.wait(15_ns);
    order.push_back("b15");
  });
  k.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "a10", "b15", "a30"}));
}

TEST(Kernel, RunUntilStopsAtBound) {
  Kernel k;
  int wakes = 0;
  k.spawn_thread("t", [&] {
    for (;;) {
      k.wait(10_ns);
      wakes++;
    }
  });
  k.run(35_ns);
  EXPECT_EQ(wakes, 3);
  EXPECT_EQ(k.now(), 35_ns);
  // Can continue.
  k.run(100_ns);
  EXPECT_EQ(wakes, 10);
}

TEST(Kernel, DontInitializeThreadNeverRunsWithoutTrigger) {
  Kernel k;
  bool ran = false;
  ThreadOptions opts;
  opts.dont_initialize = true;
  k.spawn_thread("t", [&] { ran = true; }, opts);
  k.run();
  EXPECT_FALSE(ran);
}

TEST(Kernel, StopEndsRunEarly) {
  Kernel k;
  int wakes = 0;
  k.spawn_thread("t", [&] {
    for (;;) {
      k.wait(10_ns);
      if (++wakes == 3) {
        k.stop();
      }
    }
  });
  k.run();
  EXPECT_EQ(wakes, 3);
  EXPECT_EQ(k.now(), 30_ns);
}

TEST(Kernel, MethodRunsOnceAtInitialization) {
  Kernel k;
  int runs = 0;
  k.spawn_method("m", [&] { runs++; });
  k.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(k.stats().method_activations, 1u);
  EXPECT_EQ(k.stats().context_switches, 0u);
}

TEST(Kernel, MethodNextTriggerTimerReactivates) {
  Kernel k;
  std::vector<Time> stamps;
  k.spawn_method("m", [&] {
    stamps.push_back(k.now());
    if (stamps.size() < 4) {
      k.next_trigger(10_ns);
    }
  });
  k.run();
  EXPECT_EQ(stamps, (std::vector<Time>{Time{}, 10_ns, 20_ns, 30_ns}));
}

TEST(Kernel, MethodStaticSensitivity) {
  Kernel k;
  Event e(k, "e");
  int runs = 0;
  MethodOptions opts;
  opts.sensitivity = {&e};
  opts.dont_initialize = true;
  k.spawn_method("m", [&] { runs++; }, opts);
  k.spawn_thread("t", [&] {
    k.wait(5_ns);
    e.notify();
    k.wait(5_ns);
    e.notify();
  });
  k.run();
  EXPECT_EQ(runs, 2);
}

TEST(Kernel, NextTriggerEventOverridesStaticSensitivity) {
  Kernel k;
  Event static_ev(k, "static");
  Event dynamic_ev(k, "dynamic");
  std::vector<std::string> wakes;
  MethodOptions opts;
  opts.sensitivity = {&static_ev};
  opts.dont_initialize = true;
  bool first = true;
  k.spawn_method(
      "m",
      [&] {
        wakes.push_back(k.now().to_string());
        if (first) {
          first = false;
          k.next_trigger(dynamic_ev);
        }
      },
      opts);
  k.spawn_thread("t", [&] {
    k.wait(1_ns);
    static_ev.notify();  // first activation
    k.wait(1_ns);
    static_ev.notify();  // must be ignored: dynamic override armed
    k.wait(1_ns);
    dynamic_ev.notify();  // second activation
    k.wait(1_ns);
    static_ev.notify();  // static sensitivity restored: third activation
  });
  k.run();
  EXPECT_EQ(wakes, (std::vector<std::string>{"1 ns", "3 ns", "4 ns"}));
}

TEST(Kernel, WaitFromMethodIsAnError) {
  Kernel k;
  k.spawn_method("m", [&] { k.wait(1_ns); });
  EXPECT_THROW(k.run(), SimulationError);
}

TEST(Kernel, NextTriggerFromThreadIsAnError) {
  Kernel k;
  k.spawn_thread("t", [&] { k.next_trigger(1_ns); });
  EXPECT_THROW(k.run(), SimulationError);
}

TEST(Kernel, ExceptionInThreadPropagatesOutOfRun) {
  Kernel k;
  k.spawn_thread("t", [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(k.run(), std::runtime_error);
}

TEST(Kernel, ExceptionInMethodPropagatesOutOfRun) {
  Kernel k;
  k.spawn_method("m", [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(k.run(), std::runtime_error);
}

TEST(Kernel, DynamicallySpawnedThreadRuns) {
  Kernel k;
  bool child_ran = false;
  k.spawn_thread("parent", [&] {
    k.wait(10_ns);
    k.spawn_thread("child", [&] {
      EXPECT_EQ(k.now(), 10_ns);
      child_ran = true;
    });
    k.wait(1_ns);
  });
  k.run();
  EXPECT_TRUE(child_ran);
}

TEST(Kernel, TeardownUnwindsBlockedThreadStacks) {
  // A thread suspended in wait() holds an RAII object; destroying the
  // kernel must run its destructor (via ProcessKilled unwinding).
  bool destroyed = false;
  struct Guard {
    bool* flag;
    ~Guard() { *flag = true; }
  };
  {
    Kernel k;
    k.spawn_thread("t", [&] {
      Guard g{&destroyed};
      k.wait(1000_s);
    });
    k.run(1_ns);
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

/// 1/3 computed at run time, so the division is rounded by the current
/// SSE control register (fegetround() reads the x87 control word).
double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(Kernel, EachThreadKeepsItsOwnFloatingPointEnvironment) {
  // A fiber switch saves and restores the floating-point control state
  // per execution context: a rounding mode set in one thread stays with
  // that thread, and never leaks into a sibling or the scheduler.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one_third();
  std::vector<int> upward_modes;
  std::vector<double> upward_quotients;
  std::vector<int> sibling_modes;
  std::vector<double> sibling_quotients;
  Kernel k;
  k.spawn_thread("upward", [&] {
    std::fesetround(FE_UPWARD);
    for (int i = 0; i < 3; ++i) {
      k.wait(1_ns);
      upward_modes.push_back(std::fegetround());
      upward_quotients.push_back(one_third());
    }
  });
  k.spawn_thread("sibling", [&] {
    for (int i = 0; i < 4; ++i) {
      sibling_modes.push_back(std::fegetround());
      sibling_quotients.push_back(one_third());
      k.wait(1_ns);
    }
  });
  k.run();
  const int mode_after_run = std::fegetround();
  const double quotient_after_run = one_third();
  std::fesetround(FE_TONEAREST);  // keep a failure out of later tests
  EXPECT_EQ(mode_after_run, FE_TONEAREST);
  EXPECT_EQ(quotient_after_run, nearest);
  EXPECT_EQ(upward_modes, std::vector<int>(3, FE_UPWARD));
  for (double q : upward_quotients) {
    EXPECT_GT(q, nearest);
  }
  EXPECT_EQ(sibling_modes, std::vector<int>(4, FE_TONEAREST));
  for (double q : sibling_quotients) {
    EXPECT_EQ(q, nearest);
  }
}

TEST(Kernel, CurrentProcessTracksExecution) {
  Kernel k;
  Process* t = k.spawn_thread("t", [&] {
    EXPECT_EQ(k.current_process()->name(), "t");
    k.wait(1_ns);
    EXPECT_EQ(k.current_process()->name(), "t");
  });
  EXPECT_EQ(k.current_process(), nullptr);
  k.run();
  EXPECT_EQ(k.current_process(), nullptr);
  EXPECT_TRUE(t->terminated());
}

TEST(Kernel, FreeFunctionsRequireRunningKernel) {
  EXPECT_THROW(wait(1_ns), SimulationError);
  EXPECT_THROW(sim_time_stamp(), SimulationError);
}

TEST(Kernel, FreeFunctionsWorkInsideProcesses) {
  Kernel k;
  k.spawn_thread("t", [&] {
    wait(10_ns);
    EXPECT_EQ(sim_time_stamp(), 10_ns);
  });
  k.run();
  EXPECT_EQ(k.now(), 10_ns);
}

TEST(Kernel, StatsCountProcesses) {
  Kernel k;
  k.spawn_thread("a", [] {});
  k.spawn_thread("b", [] {});
  k.spawn_method("m", [] {});
  k.run();
  EXPECT_EQ(k.stats().processes_spawned, 3u);
  EXPECT_EQ(k.stats().context_switches, 2u);
  EXPECT_EQ(k.stats().method_activations, 1u);
}

TEST(Kernel, WaitDeltaYieldsWithinSameDate) {
  Kernel k;
  std::vector<std::string> order;
  k.spawn_thread("a", [&] {
    order.push_back("a1");
    k.wait_delta();
    order.push_back("a2");
    EXPECT_EQ(k.now(), Time{});
  });
  k.spawn_thread("b", [&] { order.push_back("b1"); });
  k.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2"}));
}

TEST(Kernel, DeltaBuffersKeepTheirArenaCapacity) {
  // The scheduler arena reserves the delta-resume and delta-notification
  // buffers to the process count before the first wave; draining them at
  // every delta iteration must keep that block, so steady state never
  // regrows them.
  Kernel k;
  k.set_workers(0);  // the kernel's own buffers, not a group task's
  constexpr std::size_t kThreads = 50;
  std::deque<Event> events;
  std::vector<std::size_t> capacities;
  for (std::size_t i = 0; i < kThreads; ++i) {
    Event& e = events.emplace_back(k, "e" + std::to_string(i));
    k.spawn_thread("t" + std::to_string(i), [&k, &e, &capacities] {
      for (int round = 0; round < 3; ++round) {
        e.notify_delta();
        k.wait_delta();
        capacities.push_back(k.delta_buffer_capacity());
      }
    });
  }
  k.run();
  ASSERT_EQ(capacities.size(), 3 * kThreads);
  for (std::size_t capacity : capacities) {
    EXPECT_EQ(capacity, capacities.front());
  }
  EXPECT_GE(capacities.front(), kThreads);
}

TEST(Kernel, SimultaneousTimeoutsFireInScheduleOrder) {
  Kernel k;
  std::vector<std::string> order;
  k.spawn_thread("a", [&] {
    k.wait(10_ns);
    order.push_back("a");
  });
  k.spawn_thread("b", [&] {
    k.wait(10_ns);
    order.push_back("b");
  });
  k.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
}

TEST(Kernel, NestedRunIsAnError) {
  Kernel k;
  k.spawn_thread("t", [&] { k.run(); });
  EXPECT_THROW(k.run(), SimulationError);
}

TEST(KernelStats, ForEachCounterDrivesEveryMerge) {
  // One enumeration feeds operator-, accumulate() and the parallel
  // scheduler's reset; the sizeof tripwire in stats.h counts on it
  // visiting exactly kCounterCount counters.
  KernelStats a;
  std::uint64_t next = 1;
  std::size_t visited = 0;
  KernelStats::for_each_counter(
      a, a, [&](std::uint64_t& counter, const std::uint64_t&) {
        counter = next++;
        visited++;
      });
  EXPECT_EQ(visited, KernelStats::kCounterCount);
  KernelStats twice;
  accumulate(twice, a);
  accumulate(twice, a);
  const KernelStats diff = twice - a;
  KernelStats::for_each_counter(
      diff, a, [](const std::uint64_t& d, const std::uint64_t& expected) {
        EXPECT_EQ(d, expected);
      });
  EXPECT_EQ(twice.context_switches, 2 * a.context_switches);
  EXPECT_EQ(twice.syncs(SyncCause::MethodRearm),
            2 * a.syncs(SyncCause::MethodRearm));
}

}  // namespace
}  // namespace tdsim

// The benchmark's own span tracer.
//
// Spans are recorded only in benchmark code, around calls into tdsim's
// public API (Kernel construction, spawn_thread, run, Smart-FIFO accesses,
// sync calls, the model's own compute). Nothing inside the library is
// instrumented.
//
// Self time. tdsim runs processes as fibers, so a span opened by one
// process (say a write that blocks) stays open while other processes run
// and open spans of their own: spans of one OS thread interleave rather
// than nest. Each OS thread therefore keeps a *lane*: a timeline on which
// every instant is attributed to the most recently opened span that is
// still open on that lane, or to the lane's idle time when none is. The
// time a blocked access spends switching away is thus charged to the
// access, and the time another process then spends in its own spans is
// charged to those. Per lane, the self times plus the idle time add up to
// the lane's share of run() wall time exactly; the benchmark's tests check
// this. A fiber may resume on another worker thread, so a span may end on
// a different lane than the one it opened on; its record then stays on
// the opening lane, which pops it once it sees the (atomic) closed flag.
//
// Everything stays in memory: per-kind self and total times, and
// bounded reservoirs of call durations for percentiles. Results are read
// once run() has returned and the scheduler's workers are parked.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace tdbench {

enum class Kind : std::uint8_t {
  KernelConstruct,  ///< Kernel(KernelConfig)
  KernelSpawn,      ///< Kernel::spawn_thread
  KernelRun,        ///< Kernel::run / SocPlatform::run_to_completion
  KernelWait,       ///< Kernel::wait(Time)
  SyncCreate,       ///< Kernel::create_domain
  SyncSync,         ///< SyncDomain::sync that suspends (quantum reached)
  SchedLink,        ///< Kernel::link_domains
  CoreWrite,        ///< SmartFifo::write
  CoreRead,         ///< SmartFifo::read
  SocConstruct,     ///< SocPlatform construction
  ModelCompute,     ///< the model's own per-step computation
  kCount,
};

inline constexpr std::size_t kKindCount =
    static_cast<std::size_t>(Kind::kCount);

/// Duration classes the percentile metrics are taken over.
enum class Sample : std::uint8_t { Suspend, Access, Spawn, None };

inline constexpr std::size_t kSampleClasses = 3;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct OpenSpan {
  std::atomic<bool> closed{false};
  Kind kind = Kind::KernelRun;
  std::uint64_t self_ns = 0;
};

/// Per-kind totals of one lane.
struct KindTotals {
  std::uint64_t self_ns = 0;
  std::uint64_t total_ns = 0;
};

/// One OS thread's timeline. Only its own thread touches it while a run
/// is in progress, except for the closed flags of its open records.
class Lane {
 public:
  static constexpr std::size_t kReservoir = 1 << 15;

  OpenSpan* open(Kind kind, std::uint64_t t) {
    advance(t);
    OpenSpan* rec = nullptr;
    if (free_.empty()) {
      owned_.push_back(std::make_unique<OpenSpan>());
      rec = owned_.back().get();
    } else {
      rec = free_.back();
      free_.pop_back();
    }
    rec->closed.store(false, std::memory_order_relaxed);
    rec->kind = kind;
    rec->self_ns = 0;
    stack_.push_back(rec);
    return rec;
  }

  /// Ends `rec`, opened on `origin`, at `t` on this (the current) lane.
  void close(OpenSpan* rec, Lane* origin, Kind kind, std::uint64_t start,
             std::uint64_t t, Sample sample) {
    advance(t);
    kinds_[static_cast<std::size_t>(kind)].total_ns += t - start;
    if (sample != Sample::None) {
      keep_sample(static_cast<std::size_t>(sample), t - start);
    }
    rec->closed.store(true, std::memory_order_release);
    if (origin == this) {
      pop_closed();
    }
  }

  /// Starts a fresh attribution window at `t` (no span may be open).
  void begin_window(std::uint64_t t) {
    pop_closed();
    last_ns_ = t;
    idle_ns_ = 0;
    events_ = 0;
    for (KindTotals& k : kinds_) {
      k.self_ns = 0;
    }
  }

  /// Closes the attribution window at `t`.
  void end_window(std::uint64_t t) {
    advance(t);
    pop_closed();
  }

  /// Forgets times and samples (start of an iteration).
  void reset() {
    kinds_ = {};
    for (auto& r : samples_) {
      r.clear();
    }
    seen_ = {};
    idle_ns_ = 0;
    events_ = 0;
  }

  const std::array<KindTotals, kKindCount>& kinds() const { return kinds_; }
  std::uint64_t idle_ns() const { return idle_ns_; }
  std::uint64_t events() const { return events_; }
  const std::vector<std::uint32_t>& samples(std::size_t cls) const {
    return samples_[cls];
  }
  std::size_t open_spans() const { return stack_.size(); }

 private:
  void advance(std::uint64_t t) {
    pop_closed();
    const std::uint64_t gap = t > last_ns_ ? t - last_ns_ : 0;
    if (stack_.empty()) {
      idle_ns_ += gap;
    } else {
      stack_.back()->self_ns += gap;
    }
    last_ns_ = std::max(last_ns_, t);
    events_++;
  }

  void pop_closed() {
    while (!stack_.empty() &&
           stack_.back()->closed.load(std::memory_order_acquire)) {
      OpenSpan* rec = stack_.back();
      stack_.pop_back();
      kinds_[static_cast<std::size_t>(rec->kind)].self_ns += rec->self_ns;
      free_.push_back(rec);
    }
  }

  /// Reservoir sampling (Vitter's algorithm R) with a fixed-seed
  /// xorshift, so a lane keeps a uniform bounded sample of durations.
  void keep_sample(std::size_t cls, std::uint64_t ns) {
    const auto v =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX));
    const std::uint64_t seen = ++seen_[cls];
    std::vector<std::uint32_t>& r = samples_[cls];
    if (r.size() < kReservoir) {
      r.push_back(v);
      return;
    }
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const std::uint64_t slot = rng_ % seen;
    if (slot < kReservoir) {
      r[slot] = v;
    }
  }

  std::uint64_t last_ns_ = 0;
  std::uint64_t idle_ns_ = 0;
  std::uint64_t events_ = 0;
  std::vector<OpenSpan*> stack_;
  std::vector<OpenSpan*> free_;
  std::vector<std::unique_ptr<OpenSpan>> owned_;
  std::array<KindTotals, kKindCount> kinds_{};
  std::array<std::vector<std::uint32_t>, kSampleClasses> samples_;
  std::array<std::uint64_t, kSampleClasses> seen_{};
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

/// The process-wide lane registry.
class Tracer {
 public:
  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  /// The calling thread's lane, registered on first use. A lane first
  /// used inside a run() window joins that window at its start.
  Lane& lane() {
    thread_local Lane* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      lanes_.push_back(std::make_unique<Lane>());
      mine = lanes_.back().get();
      mine->begin_window(window_start_);
    }
    return *mine;
  }

  /// Opens the attribution window of a run() on every lane.
  void begin_window(std::uint64_t t) {
    std::lock_guard<std::mutex> lock(mutex_);
    window_start_ = t;
    for (auto& lane : lanes_) {
      lane->begin_window(t);
    }
  }

  /// Closes it; call once run() has returned.
  void end_window(std::uint64_t t) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& lane : lanes_) {
      lane->end_window(t);
    }
  }

  /// Visits every lane. Only call while no simulation is running.
  template <typename F>
  void for_each_lane(F&& f) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& lane : lanes_) {
      f(*lane);
    }
  }

 private:
  Tracer() = default;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint64_t window_start_ = 0;
};

inline Sample default_sample(Kind kind) {
  switch (kind) {
    case Kind::KernelSpawn: return Sample::Spawn;
    case Kind::KernelWait:
    case Kind::SyncSync: return Sample::Suspend;
    case Kind::CoreWrite:
    case Kind::CoreRead: return Sample::Access;
    default: return Sample::None;
  }
}

/// RAII span; Span<false> compiles to nothing, so untraced iterations run
/// exactly the code a user would write.
template <bool On>
class Span {
 public:
  explicit Span(Kind) {}
  void set_suspended(bool) {}
};

template <>
class Span<true> {
 public:
  explicit Span(Kind kind)
      : kind_(kind), sample_(default_sample(kind)),
        origin_(&Tracer::instance().lane()), start_(now_ns()),
        rec_(origin_->open(kind, start_)) {}

  ~Span() {
    const std::uint64_t end = now_ns();
    Tracer::instance().lane().close(rec_, origin_, kind_, start_, end,
                                    sample_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Re-classifies a FIFO access that suspended its caller.
  void set_suspended(bool suspended) {
    if (suspended) {
      sample_ = Sample::Suspend;
    }
  }

 private:
  Kind kind_;
  Sample sample_;
  Lane* origin_;
  std::uint64_t start_;
  OpenSpan* rec_;
};

}  // namespace tdbench

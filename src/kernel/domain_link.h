// Channel-side concurrency-group discovery.
//
// Parallel per-domain execution (Kernel::set_workers) may only run two
// domains concurrently when nothing orders them -- and the things that
// order domains in this codebase are the channels between them: Smart-FIFO
// cell stamps, StartGate dates, regular FIFO hand-offs, signal updates,
// arbitration points. Each channel therefore owns a DomainLink and calls
// touch() with the calling process's domain on every public operation:
// the first time a channel sees traffic from a second domain it declares
// the pair to the kernel (Kernel::link_domains), which merges their
// concurrency groups and restores full serialization between them.
//
// The fast path is a single relaxed pointer load and compare (the previous
// caller's domain), so instrumented channels stay free on the hot path.
// Links discovered at the initialization wave -- which runs sequentially
// even in parallel mode, and is when virtually every channel meets both
// its sides -- are in place before the first parallel round. The fields
// are atomics so that two *concurrent* groups making first contact on one
// channel still record the link race-free (the kernel re-partitions at
// the next horizon). The channel's own state has no such protection, and
// a first contact after initialization is unsafe in general, not only
// inside one parallel round: until a horizon merges the two groups, a
// group with no declared links has an unbounded lookahead window, so it
// can free-run far past the global horizon and reach the channel while
// the other side's group is still using it at earlier dates. Declare
// every coupling whose first traffic happens after initialization up
// front with Kernel::link_domains, as with any coupling no channel can
// see (e.g. a plain variable shared across concurrent domains). See
// README "Parallel execution".
#pragma once

#include <atomic>
#include <string>
#include <utility>

#include "kernel/kernel.h"
#include "kernel/sync_domain.h"

namespace tdsim {

class DomainLink {
 public:
  DomainLink() = default;

  /// `label` names the owning channel in Kernel::explain_group() output --
  /// the answer to "which channel merged my concurrency group". Channels
  /// that know their name pass it here (or via set_label from a
  /// constructor body).
  explicit DomainLink(const std::string& label) { set_label(label); }

  /// Elaboration-time only (the label is read when a link is declared).
  /// The "via" string is composed here, once, so touch() stays
  /// allocation-free on the channel hot path.
  void set_label(const std::string& label) {
    via_ = "channel '" + label + "'";
  }

  /// Declares the owning channel's minimum modeling latency: the smallest
  /// simulated-time delay the channel ever imposes between a producer-side
  /// operation and its consumer-side visibility (FIFO depth x cell
  /// quantum, a bus hop latency, a NoC link's header latency...). Purely
  /// diagnostic for channel-discovered links -- the link still *merges*
  /// the concurrency groups, because both sides mutate the same channel
  /// object -- but Kernel::explain_group() prints it next to the channel
  /// label, and it is the value a model author would pass to
  /// Kernel::link_domains(a, b, min_latency) after restructuring the
  /// coupling into a lookahead-safe (horizon-mediated) one. See README
  /// "Parallel execution".
  void set_min_latency(Time latency) {
    min_latency_ps_.store(latency.ps(), std::memory_order_relaxed);
  }

  Time min_latency() const {
    return Time::from_ps(min_latency_ps_.load(std::memory_order_relaxed));
  }

  /// Records `domain` as a user of the owning channel; merges concurrency
  /// groups when the channel turns out to span domains. O(1) relaxed load
  /// and compare when the caller's domain is unchanged since the last
  /// touch.
  void touch(SyncDomain& domain) {
    if (&domain == last_.load(std::memory_order_relaxed)) {
      return;
    }
    last_.store(&domain, std::memory_order_relaxed);
    SyncDomain* expected = nullptr;
    if (first_.compare_exchange_strong(expected, &domain,
                                       std::memory_order_relaxed)) {
      return;  // we are the channel's first domain
    }
    if (expected != &domain) {
      // Idempotent and lock-free once the groups are already merged; via_
      // is passed by reference and only copied when a new link is
      // actually recorded.
      domain.kernel().link_domains(*expected, domain, via_, min_latency());
    }
  }

  /// The first domain that ever touched the owning channel, or null
  /// before any traffic. Every later toucher is merged into its
  /// concurrency group, so this single domain identifies the channel's
  /// group (chunked channels report it as their flush home -- see
  /// Kernel::ChunkFlushListener).
  SyncDomain* first_domain() const {
    return first_.load(std::memory_order_relaxed);
  }

  /// Ambient-kernel variant for components not bound to a kernel at
  /// construction (buses, register banks): resolves the calling process's
  /// domain through Kernel::current(); no-op outside a running simulation
  /// (e.g. elaboration-time peeks).
  void touch_current() {
    Kernel* kernel = Kernel::current();
    if (kernel != nullptr) {
      touch(kernel->current_domain());
    }
  }

 private:
  /// The first domain ever seen; every later domain is linked against it
  /// (transitivity in the kernel's union-find does the rest).
  std::atomic<SyncDomain*> first_{nullptr};
  /// The previous caller's domain -- the fast-path filter.
  std::atomic<SyncDomain*> last_{nullptr};
  /// Declared minimum channel latency in picoseconds (see set_min_latency);
  /// atomic for the same first-contact race the pointers tolerate.
  std::atomic<std::uint64_t> min_latency_ps_{0};
  /// Pre-composed explain_group() attribution (see set_label).
  std::string via_ = "an unnamed channel";
};

}  // namespace tdsim

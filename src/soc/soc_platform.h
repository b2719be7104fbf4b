// The heterogeneous many-core SoC of the case study (paper SIV.C):
// streams of hardware accelerators (source -> transform -> sink) connected
// by hardwired FIFOs and by a stream NoC through packetizing network
// interfaces, plus one control core programming and monitoring everything
// over a memory-mapped TLM bus.
//
// The platform is built in one of two flavors with identical timing:
//   * FifoFlavor::Smart -- Smart FIFOs + method network interfaces (the
//     paper's solution);
//   * FifoFlavor::Sync  -- FIFOs synchronizing at each access + paced
//     synchronized network interfaces (the paper's baseline).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fifo_interface.h"
#include "kernel/module.h"
#include "kernel/quantum_controller.h"
#include "noc/mesh.h"
#include "noc/network_interface.h"
#include "soc/accelerator.h"
#include "soc/control_core.h"
#include "tlm/bus.h"
#include "tlm/memory.h"
#include "trace/trace.h"

namespace tdsim::soc {

enum class FifoFlavor { Smart, Sync };

inline const char* to_string(FifoFlavor flavor) {
  return flavor == FifoFlavor::Smart ? "Smart" : "Sync";
}

struct SocConfig {
  FifoFlavor flavor = FifoFlavor::Smart;
  std::uint16_t mesh_columns = 2;
  std::uint16_t mesh_rows = 2;
  /// Number of source -> transform -> sink streams.
  std::size_t streams = 4;
  /// Words processed per stream; must be a multiple of packet_words.
  std::uint64_t words_per_stream = 4096;
  /// Depth of the accelerator-side word FIFOs.
  std::size_t fifo_depth = 16;
  std::size_t packet_words = 16;
  Time source_per_word = 3_ns;
  Time transform_per_word = 2_ns;
  Time sink_per_word = 3_ns;
  Time ni_per_word = 1_ns;
  noc::Router::Timing router_timing{};
  std::size_t noc_link_depth = 2;
  /// Global quantum for the control core's memory-mapped decoupling.
  Time quantum = 1_us;
  Time poll_period = 2_us;
  unsigned monitor_every = 4;
  /// See ControlCore::Config::poll_phase.
  Time poll_phase = Time(500, TimeUnit::PS);
  std::uint64_t block_words = 256;
  /// When true, the platform partitions its processes into three
  /// synchronization domains instead of the kernel default: "soc.cpu"
  /// (control core), "soc.periph" (accelerators) and "soc.noc" (network
  /// interfaces), each created with `quantum`. Dates are bit-exact either
  /// way -- only the per-domain attribution of the sync statistics moves --
  /// and each domain's quantum can then be tuned independently.
  bool split_domains = false;
  /// Attaches this adaptive quantum policy to every split domain
  /// (requires split_domains), so each subsystem's quantum is tuned from
  /// its own sync-cause profile instead of hand-picked. `quantum` seeds
  /// the starting point, clamped into the policy's range.
  std::optional<QuantumPolicy> adaptive{};
};

class SocPlatform : public Module {
 public:
  SocPlatform(Kernel& kernel, const SocConfig& config);

  /// Runs the full workload to completion; returns the simulated end date.
  Time run_to_completion();

  /// Records accelerator/core events for cross-flavor validation.
  void set_recorder(trace::Recorder* recorder);

  const SocConfig& config() const { return config_; }
  ControlCore& core() { return *core_; }
  noc::Mesh& mesh() { return *mesh_; }

  std::size_t accelerator_count() const { return accelerators_.size(); }
  Accelerator& accelerator(std::size_t i) { return *accelerators_.at(i); }

  std::size_t network_interface_count() const { return nis_.size(); }
  noc::NetworkInterfaceBase& network_interface(std::size_t i) {
    return *nis_.at(i);
  }

  /// Checksum accumulated by stream `s`'s sink.
  std::uint32_t sink_checksum(std::size_t s) const;
  /// The checksum the sink must produce, computed arithmetically.
  std::uint32_t expected_checksum(std::size_t s) const;
  bool all_streams_correct() const;

  std::uint64_t total_fifo_accesses() const;

 private:
  FifoInterface<std::uint32_t>& make_fifo(const std::string& name);

  SocConfig config_;
  std::unique_ptr<tlm::Bus> bus_;
  std::unique_ptr<tlm::Memory> memory_;
  std::unique_ptr<noc::Mesh> mesh_;
  std::vector<std::unique_ptr<FifoInterface<std::uint32_t>>> fifos_;
  std::vector<std::unique_ptr<noc::NetworkInterfaceBase>> nis_;
  std::vector<std::unique_ptr<Accelerator>> accelerators_;
  std::vector<std::size_t> sink_index_;  ///< accelerator index of sink s
  std::unique_ptr<ControlCore> core_;
};

}  // namespace tdsim::soc

// Batched fault overlay for the compiled engine: one fault per lane, so a
// single tape pass carries 64*W independent fault trials of a campaign
// (64 per state word; W words per slot -- see wide_simulator.hpp).
// BatchFaultSession names the 64-lane W=1 session that the stream paths
// and the equivalence harness use.
//
// Per-cycle semantics replicate rtl::FaultInjector::step() exactly, lane by
// lane: glitch/stuck forces pin their net during the settle of the scheduled
// cycles, watches are sampled after the settle, the clock edge samples the
// pinned D values, and SEUs strike the freshly clocked state.  A lane with
// no armed fault behaves as the plain simulator, which is what makes the
// differential checks (compiled-vs-interpreted, hardened-vs-golden) exact.
//
// arm() refuses tapes optimized past the fault-overlay-safe level (kFull
// folding redirects nets onto shared slots, so a per-lane pin would leak
// into other nets); fault-free streaming through the session is fine on any
// tape.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rtl/compiled/cone_index.hpp"
#include "rtl/compiled/wide_simulator.hpp"
#include "rtl/fault.hpp"

namespace dwt::rtl::compiled {

template <unsigned W>
class WideBatchSession {
 public:
  using Sim = WideSimulator<W>;
  using Block = typename Sim::Block;
  static constexpr unsigned kTotalLanes = Sim::kTotalLanes;

  explicit WideBatchSession(std::shared_ptr<const Tape> tape)
      : sim_(std::move(tape)) {}

  /// Schedules `f` on one lane.  Throws std::invalid_argument on a bad
  /// lane/net, an SEU whose target is not a DFF output, or a tape rewritten
  /// beyond the fault-overlay-safe optimization level.
  void arm(unsigned lane, const Fault& f) {
    if (lane >= kTotalLanes) {
      throw std::invalid_argument("BatchFaultSession::arm: bad lane");
    }
    if (f.net >= sim_.tape().net_count()) {
      throw std::invalid_argument("BatchFaultSession::arm: net out of range");
    }
    if (f.kind == FaultKind::kSeuFlip && !sim_.tape().is_dff_output(f.net)) {
      throw std::invalid_argument(
          "BatchFaultSession::arm: SEU target is not a DFF output");
    }
    if (!sim_.tape().fault_overlay_safe()) {
      throw std::invalid_argument(
          "BatchFaultSession::arm: tape is not fault-overlay safe "
          "(compiled at OptLevel::kFull)");
    }
    faults_.push_back({lane, f});
  }

  /// Monitors a net (e.g. the parity error flag) on every lane: bit L of
  /// watch_block() latches 1 if lane L ever sees the net high after a
  /// settle.
  void watch(NetId net) {
    if (net >= sim_.tape().net_count()) {
      throw std::invalid_argument("BatchFaultSession::watch: net out of range");
    }
    watched_.push_back(net);
  }
  [[nodiscard]] const Block& watch_block() const { return watch_mask_; }

  /// Records each post-settle state into `trace` (one append per step).
  /// Used on the fault-free reference run to capture the golden trace that
  /// cone-restricted sessions later replay against; pass nullptr to stop.
  void set_trace(GoldenTrace* trace) { trace_ = trace; }

  // Batched streaming surface --------------------------------------------
  /// Drives every lane with the same value (campaign trials share stimulus).
  void set_bus(const Bus& bus, std::int64_t value) {
    sim_.set_bus_all(bus, value);
  }
  /// One clock cycle for all lanes with each lane's overlay applied.
  void step() {
    // Activate this cycle's pins.  Stuck forces persist once applied; glitch
    // forces live for exactly this settle+edge and are released below.
    for (const Armed& a : faults_) {
      if (a.fault.cycle != cycle_) continue;
      const Block bit = Block::lane_bit(a.lane);
      switch (a.fault.kind) {
        case FaultKind::kGlitch:
          sim_.force(a.fault.net, bit,
                     a.fault.glitch_value ? bit : Block::zeros());
          break;
        case FaultKind::kStuckAt0:
          sim_.force(a.fault.net, bit, Block::zeros());
          break;
        case FaultKind::kStuckAt1:
          sim_.force(a.fault.net, bit, bit);
          break;
        case FaultKind::kSeuFlip:
          break;  // struck after the edge, below
      }
    }
    sim_.eval();
    if (trace_ != nullptr) trace_->append(sim_);
    for (const NetId n : watched_) watch_mask_ |= sim_.block(n);
    sim_.clock_edge();
    for (const Armed& a : faults_) {
      if (a.fault.cycle != cycle_) continue;
      if (a.fault.kind == FaultKind::kSeuFlip) {
        sim_.flip_state(a.fault.net, Block::lane_bit(a.lane));
      } else if (a.fault.kind == FaultKind::kGlitch) {
        sim_.release(a.fault.net, Block::lane_bit(a.lane));
      }
    }
    ++cycle_;
  }
  [[nodiscard]] std::int64_t read_bus(const Bus& bus, unsigned lane) const {
    return sim_.read_bus(bus, lane);
  }

  /// Reads the first `lanes` lanes of a bus in one pass: per bus bit the
  /// slot is resolved once and its W state words fanned out to the lane
  /// values, instead of `lanes` read_bus calls re-resolving every bit.
  /// This is the batched runners' hot read path (stream_runner.cpp).
  void read_bus_all(const Bus& bus, std::int64_t* out, unsigned lanes) const {
    if (bus.bits.empty()) {
      throw std::invalid_argument("BatchFaultSession::read_bus_all: empty bus");
    }
    if (lanes == 0 || lanes > kTotalLanes) {
      throw std::invalid_argument("BatchFaultSession::read_bus_all: bad lanes");
    }
    std::fill(out, out + lanes, std::int64_t{0});
    const Tape& tape = sim_.tape();
    for (std::size_t i = 0; i < bus.bits.size(); ++i) {
      const NetId net = bus.bits[i];
      if (net >= tape.net_count()) {
        throw std::invalid_argument(
            "BatchFaultSession::read_bus_all: net out of range");
      }
      const Slot s = tape.slot_of(net);
      if (s == kNullSlot) {
        throw std::invalid_argument(
            "BatchFaultSession::read_bus_all: net was eliminated by the "
            "tape optimizer");
      }
      for (unsigned k = 0; k * kWordLanes < lanes; ++k) {
        const std::uint64_t w = sim_.slot_word(s, k);
        const unsigned base = k * kWordLanes;
        const unsigned count = std::min(kWordLanes, lanes - base);
        for (unsigned j = 0; j < count; ++j) {
          out[base + j] |= static_cast<std::int64_t>((w >> j) & 1) << i;
        }
      }
    }
    sign_extend_lanes(bus, out, lanes);
  }

  /// Two's complement sign extension of read_bus_all values, shared with the
  /// cone session's bulk read.
  static void sign_extend_lanes(const Bus& bus, std::int64_t* out,
                                unsigned lanes) {
    const int w = bus.width();
    if (w >= 64) return;
    const std::int64_t sign = std::int64_t{1} << (w - 1);
    const std::int64_t wrap = std::int64_t{1} << w;
    for (unsigned l = 0; l < lanes; ++l) {
      if (out[l] & sign) out[l] -= wrap;
    }
  }

  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }
  [[nodiscard]] Sim& sim() { return sim_; }

 private:
  Sim sim_;
  struct Armed {
    unsigned lane;
    Fault fault;
  };
  std::vector<Armed> faults_;
  std::vector<NetId> watched_;
  Block watch_mask_{};
  GoldenTrace* trace_ = nullptr;
  std::uint64_t cycle_ = 0;
};

/// The 64-lane session: one state word per slot.
using BatchFaultSession = WideBatchSession<1>;

}  // namespace dwt::rtl::compiled

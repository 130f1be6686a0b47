#include "hw/stream_runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "dsp/fir_filter.hpp"

namespace dwt::hw {
namespace {

/// ceil(n/2) / floor(n/2): the low/high sub-band sizes an n-sample signal
/// produces under the JPEG2000 (1,1) symmetric extension.
std::size_t low_count(std::size_t n) { return (n + 1) / 2; }
std::size_t high_count(std::size_t n) { return n / 2; }

/// A single-sample stream passes through the controller untouched (the
/// JPEG2000 single-sample rule); the datapath never runs, so the identity
/// result is reported with the same cycle formula as a streamed pair.
StreamResult single_sample_result(std::int64_t x0, int latency) {
  StreamResult out;
  out.low = {x0};
  out.cycles = static_cast<std::uint64_t>(1 + 2 * kGuardPairs + latency);
  return out;
}

/// Feeds extended pairs t = -guard .. ns-1+guard; pair t is
/// (x_ext[2t], x_ext[2t+1]) with whole-sample symmetric extension.  For odd
/// n the last fed pair's odd slot is the mirrored sample x[n-2]; the
/// high-band value it produces is the extension's phantom d[nd] = d[nd-1]
/// and is simply not captured, so n samples yield ceil(n/2) low and
/// floor(n/2) high coefficients.
template <typename Sim>
StreamResult run_impl(const rtl::Bus& in_even, const rtl::Bus& in_odd,
                      const rtl::Bus& out_low, const rtl::Bus& out_high,
                      int latency, Sim& sim, std::span<const std::int64_t> x) {
  if (x.empty()) {
    throw std::invalid_argument("run_stream: empty signal");
  }
  if (in_even.bits.empty() || in_odd.bits.empty() || out_low.bits.empty() ||
      out_high.bits.empty()) {
    throw std::invalid_argument("run_stream: datapath port bus is empty");
  }
  if (latency < 0) {
    throw std::invalid_argument("run_stream: negative latency");
  }
  if (x.size() == 1) return single_sample_result(x[0], latency);
  const std::ptrdiff_t ns = static_cast<std::ptrdiff_t>(low_count(x.size()));
  const std::ptrdiff_t nd = static_cast<std::ptrdiff_t>(high_count(x.size()));
  StreamResult out;
  out.low.assign(static_cast<std::size_t>(ns), 0);
  out.high.assign(static_cast<std::size_t>(nd), 0);

  auto x_ext = [&x](std::ptrdiff_t pos) {
    return x[dsp::mirror_index(pos, x.size())];
  };

  // Feed pairs; pair index t enters at cycle c = t + kGuardPairs, and the
  // coefficients for index i emerge `latency` cycles after pair i entered.
  const std::ptrdiff_t total_cycles =
      ns + 2 * kGuardPairs + latency;  // payload + guards + flush
  for (std::ptrdiff_t c = 0; c < total_cycles; ++c) {
    const std::ptrdiff_t t = c - kGuardPairs;
    const std::ptrdiff_t feed = t < ns + kGuardPairs ? t : ns + kGuardPairs - 1;
    sim.set_bus(in_even, x_ext(2 * feed));
    sim.set_bus(in_odd, x_ext(2 * feed + 1));
    if constexpr (requires { sim.step(); }) {
      sim.step();
    } else {
      sim.cycle();
    }
    const std::ptrdiff_t i = c - latency - kGuardPairs + 1;
    if (i >= 0 && i < ns) {
      out.low[static_cast<std::size_t>(i)] = sim.read_bus(out_low);
      if (i < nd) {
        out.high[static_cast<std::size_t>(i)] = sim.read_bus(out_high);
      }
    }
  }
  out.cycles = static_cast<std::uint64_t>(total_cycles);
  return out;
}

/// Shared body of the batched runners: any session with the batched
/// streaming surface (set_bus / step / per-lane read_bus and a kTotalLanes
/// bound) runs the same feed schedule, so the full-tape and cone-restricted
/// sessions stream identically by construction.
template <typename Session>
std::vector<StreamResult> run_batch_impl(const BuiltDatapath& dp,
                                         Session& session,
                                         std::span<const std::int64_t> x,
                                         unsigned lanes) {
  if (x.empty()) {
    throw std::invalid_argument("run_stream_batch: empty signal");
  }
  if (lanes == 0 || lanes > Session::kTotalLanes) {
    throw std::invalid_argument("run_stream_batch: bad lane count");
  }
  const int latency = dp.info.latency;
  if (x.size() == 1) {
    // Pass-through stream: no datapath activity, so no fault can land.
    return std::vector<StreamResult>(lanes,
                                     single_sample_result(x[0], latency));
  }
  const std::ptrdiff_t ns = static_cast<std::ptrdiff_t>(low_count(x.size()));
  const std::ptrdiff_t nd = static_cast<std::ptrdiff_t>(high_count(x.size()));
  std::vector<StreamResult> out(lanes);
  for (StreamResult& r : out) {
    r.low.assign(static_cast<std::size_t>(ns), 0);
    r.high.assign(static_cast<std::size_t>(nd), 0);
  }
  auto x_ext = [&x](std::ptrdiff_t pos) {
    return x[dsp::mirror_index(pos, x.size())];
  };
  // Same feed schedule as run_impl; every lane sees the same samples, and
  // the per-lane overlays inside the session produce the divergence.
  // Output capture goes through the sessions' bulk read (one slot
  // resolution per bus bit, fanned out to all lanes) -- with hundreds of
  // lanes the per-lane read_bus calls otherwise rival the settle itself.
  std::vector<std::int64_t> lane_values(lanes);
  const std::ptrdiff_t total_cycles = ns + 2 * kGuardPairs + latency;
  for (std::ptrdiff_t c = 0; c < total_cycles; ++c) {
    const std::ptrdiff_t t = c - kGuardPairs;
    const std::ptrdiff_t feed = t < ns + kGuardPairs ? t : ns + kGuardPairs - 1;
    session.set_bus(dp.in_even, x_ext(2 * feed));
    session.set_bus(dp.in_odd, x_ext(2 * feed + 1));
    session.step();
    const std::ptrdiff_t i = c - latency - kGuardPairs + 1;
    if (i >= 0 && i < ns) {
      session.read_bus_all(dp.out_low, lane_values.data(), lanes);
      for (unsigned l = 0; l < lanes; ++l) {
        out[l].low[static_cast<std::size_t>(i)] = lane_values[l];
      }
      if (i < nd) {
        session.read_bus_all(dp.out_high, lane_values.data(), lanes);
        for (unsigned l = 0; l < lanes; ++l) {
          out[l].high[static_cast<std::size_t>(i)] = lane_values[l];
        }
      }
    }
  }
  for (StreamResult& r : out) r.cycles = static_cast<std::uint64_t>(total_cycles);
  return out;
}

}  // namespace

StreamResult run_stream(const BuiltDatapath& dp, rtl::Simulator& sim,
                        std::span<const std::int64_t> x) {
  return run_impl(dp.in_even, dp.in_odd, dp.out_low, dp.out_high,
                  dp.info.latency, sim, x);
}

StreamResult run_stream_activity(const BuiltDatapath& dp, rtl::ActivitySim& sim,
                                 std::span<const std::int64_t> x) {
  return run_impl(dp.in_even, dp.in_odd, dp.out_low, dp.out_high,
                  dp.info.latency, sim, x);
}

StreamResult run_stream_mapped(const BuiltDatapath& dp,
                               fpga::MappedActivitySim& sim,
                               std::span<const std::int64_t> x) {
  return run_impl(dp.in_even, dp.in_odd, dp.out_low, dp.out_high,
                  dp.info.latency, sim, x);
}

StreamResult run_stream_faulty(const BuiltDatapath& dp, rtl::FaultInjector& inj,
                               std::span<const std::int64_t> x) {
  return run_impl(dp.in_even, dp.in_odd, dp.out_low, dp.out_high,
                  dp.info.latency, inj, x);
}

template <unsigned W>
std::vector<StreamResult> run_stream_batch(
    const BuiltDatapath& dp, rtl::compiled::WideBatchSession<W>& session,
    std::span<const std::int64_t> x, unsigned lanes) {
  return run_batch_impl(dp, session, x, lanes);
}

template <unsigned W>
std::vector<StreamResult> run_stream_batch(
    const BuiltDatapath& dp, rtl::compiled::ConeBatchSession<W>& session,
    std::span<const std::int64_t> x, unsigned lanes) {
  return run_batch_impl(dp, session, x, lanes);
}

template std::vector<StreamResult> run_stream_batch<1>(
    const BuiltDatapath&, rtl::compiled::WideBatchSession<1>&,
    std::span<const std::int64_t>, unsigned);
template std::vector<StreamResult> run_stream_batch<2>(
    const BuiltDatapath&, rtl::compiled::WideBatchSession<2>&,
    std::span<const std::int64_t>, unsigned);
template std::vector<StreamResult> run_stream_batch<4>(
    const BuiltDatapath&, rtl::compiled::WideBatchSession<4>&,
    std::span<const std::int64_t>, unsigned);
template std::vector<StreamResult> run_stream_batch<1>(
    const BuiltDatapath&, rtl::compiled::ConeBatchSession<1>&,
    std::span<const std::int64_t>, unsigned);
template std::vector<StreamResult> run_stream_batch<2>(
    const BuiltDatapath&, rtl::compiled::ConeBatchSession<2>&,
    std::span<const std::int64_t>, unsigned);
template std::vector<StreamResult> run_stream_batch<4>(
    const BuiltDatapath&, rtl::compiled::ConeBatchSession<4>&,
    std::span<const std::int64_t>, unsigned);

std::uint64_t stream_cycle_count(const BuiltDatapath& dp, std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("stream_cycle_count: empty signal");
  }
  return static_cast<std::uint64_t>(low_count(n) + 2 * kGuardPairs +
                                    static_cast<std::size_t>(dp.info.latency));
}

StreamResult run_stream53(const BuiltDatapath53& dp, rtl::Simulator& sim,
                          std::span<const std::int64_t> x) {
  return run_impl(dp.in_even, dp.in_odd, dp.out_low, dp.out_high, dp.latency,
                  sim, x);
}

InverseStreamResult run_stream_inverse(const BuiltInverseDatapath& dp,
                                       rtl::Simulator& sim,
                                       std::span<const std::int64_t> low,
                                       std::span<const std::int64_t> high) {
  const std::size_t ns = low.size();
  const std::size_t nd = high.size();
  if (ns == 0 || (nd != ns && nd + 1 != ns)) {
    throw std::invalid_argument("run_stream_inverse: bad sub-band sizes");
  }
  const int latency = dp.latency;
  InverseStreamResult out;
  if (ns == 1 && nd == 0) {
    out.samples = {low[0]};
    out.cycles = static_cast<std::uint64_t>(1 + 2 * kGuardPairs + latency);
    return out;
  }
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(ns);
  out.samples.assign(ns + nd, 0);
  // Edge replication matches the software inverse model's boundary handling
  // (d_before(0) = d[0], s_at(ns) = s[ns-1]); for an odd-length signal the
  // high band is one short, so its clamp point comes one pair earlier
  // (d[nd] = d[nd-1], the (1,1) extension's phantom value).
  auto clamp_to = [](std::ptrdiff_t t, std::size_t count) {
    return static_cast<std::size_t>(std::max<std::ptrdiff_t>(
        0, std::min<std::ptrdiff_t>(t, static_cast<std::ptrdiff_t>(count) - 1)));
  };
  const std::ptrdiff_t total_cycles = half + 2 * kGuardPairs + latency;
  for (std::ptrdiff_t c = 0; c < total_cycles; ++c) {
    const std::ptrdiff_t t = c - kGuardPairs;
    sim.set_bus(dp.in_low, low[clamp_to(t, ns)]);
    sim.set_bus(dp.in_high, high[clamp_to(t, nd)]);
    sim.step();
    const std::ptrdiff_t i = c - latency - kGuardPairs + 1;
    if (i >= 0 && i < half) {
      out.samples[static_cast<std::size_t>(2 * i)] = sim.read_bus(dp.out_even);
      if (static_cast<std::size_t>(2 * i + 1) < out.samples.size()) {
        out.samples[static_cast<std::size_t>(2 * i + 1)] =
            sim.read_bus(dp.out_odd);
      }
    }
  }
  out.cycles = static_cast<std::uint64_t>(total_cycles);
  return out;
}

}  // namespace dwt::hw

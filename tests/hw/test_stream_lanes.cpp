// The compiled batched streaming surface against the interpreted run_stream
// reference: run_stream_batch (per-lane fault trials over one shared
// stimulus).
#include "hw/stream_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/image_gen.hpp"
#include "hw/designs.hpp"
#include "rtl/compiled/tape.hpp"

namespace dwt::hw {
namespace {

std::vector<std::int64_t> test_signal(std::size_t n) {
  const dsp::Image img = dsp::make_still_tone_image(n, 1, 11);
  std::vector<std::int64_t> x;
  x.reserve(n);
  for (const double v : img.data()) {
    x.push_back(static_cast<std::int64_t>(std::llround(v)) - 128);
  }
  return x;
}

TEST(StreamBatch, FaultFreeLanesMatchInterpretedStream) {
  const BuiltDatapath dp = build_design(DesignId::kDesign3);
  const auto x = test_signal(32);
  rtl::Simulator ref(dp.netlist);
  const StreamResult golden = run_stream(dp, ref, x);

  rtl::compiled::BatchFaultSession session(
      rtl::compiled::compile(dp.netlist));
  const auto lanes = run_stream_batch(dp, session, x, /*lanes=*/8);
  ASSERT_EQ(lanes.size(), 8u);
  for (const StreamResult& lane : lanes) {
    EXPECT_EQ(lane.low, golden.low);
    EXPECT_EQ(lane.high, golden.high);
    EXPECT_EQ(lane.cycles, golden.cycles);
  }
}

TEST(StreamBatch, ArmedLaneDivergesOthersStayGolden) {
  const BuiltDatapath dp = build_design(DesignId::kDesign2);
  const auto x = test_signal(32);
  rtl::Simulator ref(dp.netlist);
  const StreamResult golden = run_stream(dp, ref, x);

  // Stuck-at-0 on the even input's LSB for the whole stream on lane 3 only:
  // every odd even-sample is perturbed, so the lane's transform diverges.
  rtl::Fault f;
  f.kind = rtl::FaultKind::kStuckAt0;
  f.net = dp.in_even.bits[0];
  f.cycle = 0;
  rtl::compiled::BatchFaultSession session(
      rtl::compiled::compile(dp.netlist));
  session.arm(3, f);
  const auto lanes = run_stream_batch(dp, session, x, /*lanes=*/5);
  EXPECT_EQ(lanes[0].low, golden.low);
  EXPECT_EQ(lanes[1].low, golden.low);
  EXPECT_EQ(lanes[2].low, golden.low);
  EXPECT_EQ(lanes[4].low, golden.low);
  EXPECT_NE(lanes[3].low, golden.low);  // the faulty lane
}

}  // namespace
}  // namespace dwt::hw

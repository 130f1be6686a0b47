// Execution-tier seam: the native tier must compute exactly the words the
// threaded walker computes -- on clean runs, under fault overlays (where
// the native tier transparently drops to threaded), and across resets --
// and the threaded walker must match the scalar rtl::Simulator.  Also pins
// the tier-resolution policy: simulators start threaded, kAuto picks the
// fastest supported tier, and DWT_EXEC_TIER overrides every request,
// failing safe to threaded on any value but "auto" and "native".
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "hw/designs.hpp"
#include "rtl/compiled/exec_tier.hpp"
#include "rtl/compiled/native_block.hpp"
#include "rtl/compiled/tape.hpp"
#include "rtl/compiled/wide_simulator.hpp"
#include "rtl/simulator.hpp"

namespace dwt {
namespace {

using rtl::compiled::ExecTier;
using rtl::compiled::NativeBlock;
using rtl::compiled::OptLevel;
using rtl::compiled::Tape;
using rtl::compiled::WideSimulator;

/// Drives identical random stimulus into a threaded reference and a `tier`
/// subject over the same tape, and requires every materialized net to match
/// on every cycle.
template <unsigned W>
void expect_tier_matches(const rtl::Netlist& nl, OptLevel level, ExecTier tier,
                         std::uint64_t seed, bool with_faults) {
  using Block = rtl::compiled::LaneBlock<W>;
  const std::shared_ptr<const Tape> tape = rtl::compiled::compile(nl, level);
  WideSimulator<W> ref(tape);
  WideSimulator<W> sub(tape);
  sub.set_exec_tier(tier);

  const std::vector<rtl::NetId>& pis = nl.primary_inputs();
  common::Rng rng(seed);
  for (std::uint64_t cycle = 0; cycle < 24; ++cycle) {
    for (const rtl::NetId pi : pis) {
      Block b;
      for (unsigned k = 0; k < W; ++k) b.w[k] = rng.next_u64();
      ref.set_input_block(pi, b);
      sub.set_input_block(pi, b);
    }
    if (with_faults && cycle == 6) {
      // Pin a handful of lanes of the first few nets; the native tier must
      // drop to the portable path and still match.
      for (rtl::NetId n = 0; n < nl.net_count() && n < 5; ++n) {
        Block lanes;
        Block values;
        for (unsigned k = 0; k < W; ++k) {
          lanes.w[k] = rng.next_u64();
          values.w[k] = rng.next_u64();
        }
        ref.force(n, lanes, values);
        sub.force(n, lanes, values);
      }
    }
    if (with_faults && cycle == 14) {
      for (rtl::NetId n = 0; n < nl.net_count() && n < 5; ++n) {
        ref.release(n, Block::ones());
        sub.release(n, Block::ones());
      }
    }
    ref.step();
    sub.step();
    for (rtl::NetId n = 0; n < nl.net_count(); ++n) {
      if (!tape->materialized(n)) continue;
      ASSERT_EQ(ref.block(n), sub.block(n))
          << "tier " << to_string(tier) << " W=" << W << " net " << n
          << " cycle " << cycle << " faults=" << with_faults;
    }
  }
}

/// Threaded walk vs the scalar rtl::Simulator oracle: identical random
/// stimulus, every materialized net compared every cycle on sampled lanes
/// of every state word (first and last lane of each word).
template <unsigned W>
void expect_threaded_matches_oracle(const rtl::Netlist& nl, OptLevel level,
                                    std::uint64_t seed) {
  using Block = rtl::compiled::LaneBlock<W>;
  const std::shared_ptr<const Tape> tape = rtl::compiled::compile(nl, level);
  WideSimulator<W> sim(tape);
  ASSERT_EQ(sim.exec_tier(), ExecTier::kThreaded);
  std::vector<unsigned> lanes;
  for (unsigned k = 0; k < W; ++k) {
    lanes.push_back(k * rtl::compiled::kWordLanes);
    lanes.push_back(k * rtl::compiled::kWordLanes + 63);
  }
  std::vector<rtl::Simulator> oracle;
  oracle.reserve(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) oracle.emplace_back(nl);

  const std::vector<rtl::NetId>& pis = nl.primary_inputs();
  common::Rng rng(seed);
  for (std::uint64_t cycle = 0; cycle < 24; ++cycle) {
    for (const rtl::NetId pi : pis) {
      Block b;
      for (unsigned k = 0; k < W; ++k) b.w[k] = rng.next_u64();
      sim.set_input_block(pi, b);
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        oracle[i].set_input(pi, b.get(lanes[i]));
      }
    }
    sim.step();
    for (rtl::Simulator& o : oracle) o.step();
    for (rtl::NetId n = 0; n < nl.net_count(); ++n) {
      if (!tape->materialized(n)) continue;
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        ASSERT_EQ(sim.value(n, lanes[i]), oracle[i].value(n))
            << "W=" << W << " net " << n << " lane " << lanes[i] << " cycle "
            << cycle;
      }
    }
  }
}

TEST(ExecTier, ParseAndPrintRoundTrip) {
  ExecTier t = ExecTier::kAuto;
  EXPECT_TRUE(rtl::compiled::parse_exec_tier("threaded", &t));
  EXPECT_EQ(t, ExecTier::kThreaded);
  EXPECT_TRUE(rtl::compiled::parse_exec_tier("native", &t));
  EXPECT_EQ(t, ExecTier::kNative);
  EXPECT_TRUE(rtl::compiled::parse_exec_tier("auto", &t));
  EXPECT_EQ(t, ExecTier::kAuto);
  // The retired switch tier's spellings are unknown tiers now.
  EXPECT_FALSE(rtl::compiled::parse_exec_tier("interpreter", &t));
  EXPECT_FALSE(rtl::compiled::parse_exec_tier("switch", &t));
  EXPECT_FALSE(rtl::compiled::parse_exec_tier("jit", &t));
  EXPECT_EQ(t, ExecTier::kAuto);  // untouched on failure
  EXPECT_STREQ(to_string(ExecTier::kAuto), "auto");
  EXPECT_STREQ(to_string(ExecTier::kThreaded), "threaded");
  EXPECT_STREQ(to_string(ExecTier::kNative), "native");
}

TEST(ExecTier, DefaultTierIsThreaded) {
  // A simulator that never calls set_exec_tier runs the threaded walker.
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign1);
  const auto tape = rtl::compiled::compile(dp.netlist);
  EXPECT_EQ(WideSimulator<1>(tape).exec_tier(), ExecTier::kThreaded);
  EXPECT_EQ(WideSimulator<2>(tape).exec_tier(), ExecTier::kThreaded);
  EXPECT_EQ(WideSimulator<4>(tape).exec_tier(), ExecTier::kThreaded);
  EXPECT_EQ(WideSimulator<4>(tape).native_block(), nullptr);
}

TEST(ExecTier, AutoResolvesToConcreteTier) {
  for (const unsigned words : {1u, 2u, 4u}) {
    const ExecTier t = rtl::compiled::resolve_exec_tier(ExecTier::kAuto, words);
    EXPECT_NE(t, ExecTier::kAuto);
    if (rtl::compiled::native_supported(words)) {
      EXPECT_EQ(t, ExecTier::kNative);
    } else {
      EXPECT_EQ(t, ExecTier::kThreaded);
    }
  }
}

TEST(ExecTier, EnvOverrideWinsOverRequest) {
  ::setenv("DWT_EXEC_TIER", "threaded", 1);
  EXPECT_EQ(rtl::compiled::resolve_exec_tier(ExecTier::kNative, 4),
            ExecTier::kThreaded);
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign1);
  WideSimulator<1> sim(dp.netlist);
  sim.set_exec_tier(ExecTier::kNative);
  EXPECT_EQ(sim.exec_tier(), ExecTier::kThreaded);
  EXPECT_EQ(sim.native_block(), nullptr);
  if (rtl::compiled::native_supported(1)) {
    ::setenv("DWT_EXEC_TIER", "native", 1);
    sim.set_exec_tier(ExecTier::kThreaded);
    EXPECT_EQ(sim.exec_tier(), ExecTier::kNative);
  }
  ::setenv("DWT_EXEC_TIER", "auto", 1);
  EXPECT_EQ(rtl::compiled::resolve_exec_tier(ExecTier::kThreaded, 1),
            ExecTier::kThreaded);  // auto defers to the request
  ::unsetenv("DWT_EXEC_TIER");
}

TEST(ExecTier, EnvOverrideFailsSafeToThreaded) {
  // A kill-switch value that does not parse -- the retired "interpreter"
  // spelling or plain garbage -- must keep the JIT off, never fall through
  // to kAuto's native pick.
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign1);
  for (const char* value : {"interpreter", "t#rb0"}) {
    ::setenv("DWT_EXEC_TIER", value, 1);
    for (const unsigned words : {1u, 2u, 4u}) {
      EXPECT_EQ(rtl::compiled::resolve_exec_tier(ExecTier::kAuto, words),
                ExecTier::kThreaded)
          << value;
      EXPECT_EQ(rtl::compiled::resolve_exec_tier(ExecTier::kNative, words),
                ExecTier::kThreaded)
          << value;
    }
    WideSimulator<4> sim(dp.netlist);
    sim.set_exec_tier(ExecTier::kAuto);
    EXPECT_EQ(sim.exec_tier(), ExecTier::kThreaded) << value;
    EXPECT_EQ(sim.native_block(), nullptr) << value;
  }
  ::unsetenv("DWT_EXEC_TIER");
}

TEST(ExecTier, ThreadedMatchesOracleAllWidths) {
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign2);
  for (const OptLevel level :
       {OptLevel::kNone, OptLevel::kSafe, OptLevel::kFull}) {
    expect_threaded_matches_oracle<1>(dp.netlist, level, 101);
    expect_threaded_matches_oracle<2>(dp.netlist, level, 102);
    expect_threaded_matches_oracle<4>(dp.netlist, level, 103);
  }
}

TEST(ExecTier, NativeMatchesThreadedAllWidths) {
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign3);
  for (const OptLevel level :
       {OptLevel::kNone, OptLevel::kSafe, OptLevel::kFull}) {
    if (rtl::compiled::native_supported(1)) {
      expect_tier_matches<1>(dp.netlist, level, ExecTier::kNative, 301, false);
    }
    if (rtl::compiled::native_supported(4)) {
      expect_tier_matches<2>(dp.netlist, level, ExecTier::kNative, 302, false);
      expect_tier_matches<4>(dp.netlist, level, ExecTier::kNative, 303, false);
    }
  }
}

TEST(ExecTier, NativeMatchesThreadedUnderFaultOverlays) {
  // Forces make eval() bypass the native block; results must still match.
  if (!rtl::compiled::native_supported(4)) {
    GTEST_SKIP() << "native tier unsupported on this host";
  }
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign5);
  expect_tier_matches<4>(dp.netlist, OptLevel::kSafe, ExecTier::kNative, 401,
                         true);
}

TEST(ExecTier, NativeBlockIsDeterministicAndSized) {
  if (!rtl::compiled::native_supported(4)) {
    GTEST_SKIP() << "native tier unsupported on this host";
  }
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign1);
  const auto tape = rtl::compiled::compile(dp.netlist, OptLevel::kFull);
  const auto a = NativeBlock::build(*tape, 4);
  const auto b = NativeBlock::build(*tape, 4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(a->code_size(), 0u);
  EXPECT_EQ(a->code_size(), b->code_size());
  EXPECT_EQ(a->instr_count(), tape->instrs().size());
  EXPECT_EQ(a->words(), 4u);
}

TEST(ExecTier, SetNativeRejectsMismatchedBlock) {
  if (!rtl::compiled::native_supported(4)) {
    GTEST_SKIP() << "native tier unsupported on this host";
  }
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign1);
  const auto tape = rtl::compiled::compile(dp.netlist, OptLevel::kFull);
  const auto wrong_width = NativeBlock::build(*tape, 2);
  ASSERT_NE(wrong_width, nullptr);
  WideSimulator<4> sim(tape);
  EXPECT_THROW(sim.set_native(wrong_width), std::invalid_argument);
  const auto other_tape = rtl::compiled::compile(dp.netlist, OptLevel::kNone);
  const auto other = NativeBlock::build(*other_tape, 4);
  ASSERT_NE(other, nullptr);
  EXPECT_THROW(sim.set_native(other), std::invalid_argument);
  sim.set_native(NativeBlock::build(*tape, 4));
  EXPECT_EQ(sim.exec_tier(), ExecTier::kNative);
}

/// The native clock edge replaces the two-phase DFF copy with one
/// dependency-ordered pass, so the hazardous layouts are shift chains
/// (d = upstream q, must copy downstream-first), register rings (q's
/// feeding each other's d's, scratch round-trip) and self-loops (d = own
/// q, a no-op).  Build all three explicitly and require native step() to
/// track the threaded tier cycle for cycle, and threaded the scalar oracle.
TEST(ExecTier, NativeEdgeOrdersChainsRingsAndSelfLoops) {
  if (!rtl::compiled::native_supported(1)) {
    GTEST_SKIP() << "native tier unsupported on this host";
  }
  rtl::Netlist nl;
  const rtl::NetId pi = nl.add_input("pi");
  // Shift chain: pi -> a -> b -> c.  The builder emits the chain upstream-
  // first, so a naive in-order edge copy would shift the whole chain in one
  // cycle instead of one stage per cycle.
  const rtl::NetId qa = nl.add_cell(rtl::CellKind::kDff, pi);
  const rtl::NetId qb = nl.add_cell(rtl::CellKind::kDff, qa);
  const rtl::NetId qc = nl.add_cell(rtl::CellKind::kDff, qb);
  // Two-register ring (swap): d_x = q_y, d_y = q_x -- only constructible by
  // rewiring, exactly how netlist rewrites create DFFs before their cones.
  const rtl::NetId qx = nl.add_cell(rtl::CellKind::kDff, pi);
  const rtl::NetId qy = nl.add_cell(rtl::CellKind::kDff, qx);
  nl.rewire_input(nl.net(qx).driver, 0, qy);
  // Self-loop: d = own q.
  const rtl::NetId qs = nl.add_cell(rtl::CellKind::kDff, pi);
  nl.rewire_input(nl.net(qs).driver, 0, qs);
  // Observable mix so nothing is trivially dead.
  const rtl::NetId obs1 = nl.add_cell(rtl::CellKind::kXor2, qc, qy);
  const rtl::NetId obs2 = nl.add_cell(rtl::CellKind::kXor2, qs, qx);
  nl.bind_output("obs", rtl::Bus{{obs1, obs2}});

  expect_tier_matches<1>(nl, OptLevel::kNone, ExecTier::kNative, 501, false);
  expect_tier_matches<4>(nl, OptLevel::kNone, ExecTier::kNative, 502, false);
  expect_threaded_matches_oracle<4>(nl, OptLevel::kNone, 503);
}

TEST(ExecTier, TierSurvivesReset) {
  const hw::BuiltDatapath dp = hw::build_design(hw::DesignId::kDesign2);
  const auto tape = rtl::compiled::compile(dp.netlist, OptLevel::kFull);
  WideSimulator<2> a(tape);
  WideSimulator<2> b(tape);
  b.set_exec_tier(ExecTier::kAuto);
  common::Rng rng(77);
  const std::vector<rtl::NetId>& pis = dp.netlist.primary_inputs();
  for (int round = 0; round < 2; ++round) {
    a.reset();
    b.reset();
    for (int cycle = 0; cycle < 8; ++cycle) {
      for (const rtl::NetId pi : pis) {
        rtl::compiled::LaneBlock<2> blk;
        for (unsigned k = 0; k < 2; ++k) blk.w[k] = rng.next_u64();
        a.set_input_block(pi, blk);
        b.set_input_block(pi, blk);
      }
      a.step();
      b.step();
    }
    for (rtl::NetId n = 0; n < dp.netlist.net_count(); ++n) {
      if (!tape->materialized(n)) continue;
      ASSERT_EQ(a.block(n), b.block(n)) << "net " << n << " round " << round;
    }
  }
}

}  // namespace
}  // namespace dwt

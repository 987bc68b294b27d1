// Copy budget of one full checkpoint image on its way from the primary's
// regions to the backup's regions (DESIGN.md, "Checkpoint data path").
//
// Every copy of a large image on that path is a fresh allocation of its
// size, except the final restore into a region of the same size, so the
// bytes allocated while one image travels count its copies. The budget
// is three copies on the primary (regions -> image, image -> frame,
// frame -> journal), one per transmission, none in the network and two
// allocating ones on the backup (unmarshal, journal): 6·S.
//
// Measured for a 1 MiB region in a warm-passive pair, GCC 12 / libstdc++:
//   before the per-hop budget   16.0·S  (staging copies in marshal,
//                                        encode, send, transmit growth,
//                                        the datagram closure, the
//                                        session blob, the frame decode,
//                                        the fold copy, two journal
//                                        staging frames)
//   with it                      6.0·S
// This binary links tests/support/alloc_counter.cpp, which counts every
// operator new in the process.
#include <gtest/gtest.h>

#include "core/deployment.h"
#include "support/alloc_counter.h"
#include "support/counter_app.h"

namespace oftt::core {
namespace {

constexpr std::size_t kImageBytes = std::size_t{1} << 20;

struct WarmPair {
  sim::Simulation sim{77};
  std::unique_ptr<PairDeployment> dep;

  WarmPair() {
    PairDeploymentOptions opts;
    opts.engine.replication = ReplicationMode::kWarmPassive;
    opts.with_msmq = false;
    opts.with_monitor = false;
    opts.app_factory = [](sim::Process& proc) {
      testsupport::CounterAppOptions o;
      o.state_bytes = kImageBytes;
      o.ftim.replication = ReplicationMode::kWarmPassive;
      // Every capture is a full image, and the capture timer stays out
      // of the measured window: only save_now() takes one.
      o.ftim.full_checkpoint_interval = 1;
      o.ftim.checkpoint_period = sim::seconds(40);
      o.ftim.delta_stream_period = sim::seconds(10);
      proc.attachment<testsupport::CounterApp>(proc, o);
    };
    dep = std::make_unique<PairDeployment>(sim, opts);
  }

  Ftim& primary() { return *dep->ftim_on(*dep->node_by_id(dep->primary_node())); }
  Ftim& backup() { return *dep->ftim_on(*dep->node_by_id(dep->backup_node())); }
};

TEST(CopyBudget, OneFullImageHopsPrimaryToBackupWithinSixCopies) {
  WarmPair pair;
  pair.sim.run_for(sim::seconds(3));
  ASSERT_GE(pair.dep->primary_node(), 0);
  ASSERT_GE(pair.dep->backup_node(), 0);
  // The first image makes the backup's runtime current; the measured
  // one then takes the steady-state path (journal, fold on receipt).
  ASSERT_EQ(pair.primary().save_now(), S_OK);
  pair.sim.run_for(sim::seconds(1));
  ASSERT_TRUE(pair.backup().runtime_current()) << "the first image has already been folded";
  const std::uint64_t received = pair.backup().full_checkpoints_received();

  const std::size_t allocated = test::bytes_allocated_by([&] {
    ASSERT_EQ(pair.primary().save_now(), S_OK);
    pair.sim.run_for(sim::milliseconds(200));
  });

  ASSERT_EQ(pair.backup().full_checkpoints_received(), received + 1);
  ASSERT_EQ(pair.primary().peer_acked_seq(), pair.backup().latest_checkpoint()->seq);
  ASSERT_GE(pair.primary().last_checkpoint_bytes(), kImageBytes);
  const double copies =
      static_cast<double>(allocated) / static_cast<double>(pair.primary().last_checkpoint_bytes());
  RecordProperty("copies_per_image", std::to_string(copies));
  EXPECT_LE(copies, 6.5) << allocated << " bytes allocated for one "
                         << pair.primary().last_checkpoint_bytes() << "-byte image";
}

}  // namespace
}  // namespace oftt::core

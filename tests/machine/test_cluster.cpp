#include "machine/cluster.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/common.hpp"

namespace dyntrace::machine {
namespace {

TEST(Cluster, BlockPlacementFillsNodes) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  const auto placement = cluster.place_block(20, 1);
  ASSERT_EQ(placement.size(), 20u);
  // 8 cpus per node: ranks 0-7 on node 0, 8-15 on node 1, 16-19 on node 2.
  EXPECT_EQ(placement[0].node, 0);
  EXPECT_EQ(placement[7].node, 0);
  EXPECT_EQ(placement[7].cpu, 7);
  EXPECT_EQ(placement[8].node, 1);
  EXPECT_EQ(placement[8].cpu, 0);
  EXPECT_EQ(placement[19].node, 2);
  EXPECT_EQ(placement[19].cpu, 3);
}

TEST(Cluster, PlacementOfMultiCpuUnits) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  // An 8-thread OpenMP process occupies a whole node.
  const auto placement = cluster.place_block(1, 8);
  ASSERT_EQ(placement.size(), 1u);
  EXPECT_EQ(placement[0].node, 0);
  EXPECT_EQ(placement[0].cpu, 0);
  // Two 4-thread units share a node.
  const auto two = cluster.place_block(2, 4);
  EXPECT_EQ(two[0].node, 0);
  EXPECT_EQ(two[1].node, 0);
  EXPECT_EQ(two[1].cpu, 4);
}

TEST(Cluster, PlacementRejectsOversizedRequests) {
  sim::Engine engine;
  Cluster cluster(engine, ia32_linux_cluster());  // 16 nodes x 1 cpu
  EXPECT_THROW(cluster.place_block(17, 1), Error);
  EXPECT_THROW(cluster.place_block(1, 2), Error);
  EXPECT_NO_THROW(cluster.place_block(16, 1));
}

TEST(Cluster, PlacementHonoursACpuOffset) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());  // 8 cpus per node
  // A job whose per-node slice starts at CPU 4 gets 4 one-cpu slots per
  // node: ranks 0-3 on node 0 cpus 4-7, ranks 4-7 on node 1.
  const auto placement = cluster.place_block(8, 1, /*first_cpu=*/4);
  ASSERT_EQ(placement.size(), 8u);
  EXPECT_EQ(placement[0].node, 0);
  EXPECT_EQ(placement[0].cpu, 4);
  EXPECT_EQ(placement[3].node, 0);
  EXPECT_EQ(placement[3].cpu, 7);
  EXPECT_EQ(placement[4].node, 1);
  EXPECT_EQ(placement[4].cpu, 4);
  // An offset leaving no room for one unit is rejected.
  EXPECT_THROW(cluster.place_block(1, 8, /*first_cpu=*/4), Error);
}

TEST(Cluster, RegisteredJobsCountTenantsPerNode) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  EXPECT_EQ(cluster.node_tenants(0), 0);
  // "front": 9 one-cpu units from cpu 0 fill node 0 and spill onto node 1;
  // "back": 5 units from cpu 4 take 4 per node, from node 1 onto node 2.
  EXPECT_EQ(cluster.register_job("front", 0, 9, 1, 0), 1);
  EXPECT_EQ(cluster.register_job("back", 1, 5, 1, 4), 2);
  EXPECT_EQ(cluster.node_tenants(0), 1);
  EXPECT_EQ(cluster.node_tenants(1), 2);  // both jobs span node 1
  EXPECT_EQ(cluster.node_tenants(2), 1);
  EXPECT_EQ(cluster.node_tenants(3), 0);
  // A span past the machine's 144 nodes, or a unit that does not fit a
  // node at its offset, is rejected.
  EXPECT_THROW(cluster.register_job("huge", 0, 8000, 1, 0), Error);
  EXPECT_THROW(cluster.register_job("wide", 143, 9, 1, 0), Error);
  EXPECT_THROW(cluster.register_job("offset", 4, 1, 8, 4), Error);
}

TEST(Cluster, MultiTenantNodesPaySurcharge) {
  MachineSpec spec = ibm_power3_sp();
  spec.latency_jitter = 0;  // isolate the surcharge
  ASSERT_GT(spec.tenancy_factor, 0.0);
  sim::Engine e1, e2;
  Cluster solo(e1, spec);
  Cluster shared(e2, spec);
  shared.register_job("front", 0, 4, 1, 0);
  shared.register_job("back", 0, 4, 1, 4);
  const sim::TimeNs base = solo.message_delay(0, 1, 4096, 0);
  const sim::TimeNs taxed = shared.message_delay(0, 1, 4096, 0);
  // Two tenants at the default factor 0.35: a 1.35x surcharge.
  EXPECT_EQ(taxed, static_cast<sim::TimeNs>(std::llround(base * 1.35)));
  // Traffic between single-tenant nodes is untouched.
  EXPECT_EQ(shared.message_delay(2, 3, 4096, 0), solo.message_delay(2, 3, 4096, 0));
}

TEST(Cluster, JitterIsBoundedAndDeterministic) {
  sim::Engine e1, e2;
  Cluster a(e1, ibm_power3_sp(), 7);
  Cluster b(e2, ibm_power3_sp(), 7);
  const sim::TimeNs base = sim::microseconds(100);
  for (std::uint64_t salt = 0; salt < 1000; ++salt) {
    const auto ja = a.jittered(base, salt);
    EXPECT_EQ(ja, b.jittered(base, salt));  // same seed + salt, same draw
    EXPECT_GE(ja, static_cast<sim::TimeNs>(base * 0.91));
    EXPECT_LE(ja, static_cast<sim::TimeNs>(base * 1.09));
  }
}

TEST(Cluster, JitterIsStateless) {
  // Unlike a shared RNG stream, a draw does not perturb later draws: the
  // same salt gives the same answer regardless of what happened in between.
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp(), 7);
  const auto first = cluster.jittered(sim::microseconds(100), 42);
  for (std::uint64_t salt = 0; salt < 100; ++salt) {
    cluster.jittered(sim::microseconds(100), salt);
  }
  EXPECT_EQ(cluster.jittered(sim::microseconds(100), 42), first);
}

TEST(Cluster, DifferentSeedsGiveDifferentJitter) {
  sim::Engine e1, e2;
  Cluster a(e1, ibm_power3_sp(), 1);
  Cluster b(e2, ibm_power3_sp(), 2);
  int same = 0;
  for (std::uint64_t salt = 0; salt < 100; ++salt) {
    if (a.jittered(sim::microseconds(100), salt) ==
        b.jittered(sim::microseconds(100), salt)) {
      ++same;
    }
  }
  EXPECT_LT(same, 10);
}

TEST(Cluster, MessageAccounting) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  EXPECT_EQ(cluster.messages_sent(), 0u);
  cluster.message_delay(0, 1, 1000, /*now=*/0);
  cluster.message_delay(1, 2, 500, /*now=*/0);
  EXPECT_EQ(cluster.messages_sent(), 2u);
  EXPECT_EQ(cluster.bytes_sent(), 1500u);
}

TEST(Cluster, MessageDelayVariesWithSendTime) {
  sim::Engine engine;
  Cluster cluster(engine, ibm_power3_sp());
  // The send time salts the jitter, so resends over one path draw fresh
  // noise -- and two clusters agree without sharing any stream state.
  int distinct = 0;
  const auto first = cluster.message_delay(0, 1, 1000, 0);
  for (sim::TimeNs now = 1; now <= 100; ++now) {
    if (cluster.message_delay(0, 1, 1000, now) != first) ++distinct;
  }
  EXPECT_GT(distinct, 50);
}

TEST(Cluster, ZeroJitterSpecPassesThrough) {
  sim::Engine engine;
  MachineSpec spec = ibm_power3_sp();
  spec.latency_jitter = 0.0;
  Cluster cluster(engine, spec);
  EXPECT_EQ(cluster.jittered(12345, 0), 12345);
}

}  // namespace
}  // namespace dyntrace::machine

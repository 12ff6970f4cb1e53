#include "machine/spec.hpp"

#include <gtest/gtest.h>

#include "support/common.hpp"

namespace dyntrace::machine {
namespace {

TEST(MachineSpec, IbmProfileMatchesPaperTestbed) {
  const MachineSpec s = ibm_power3_sp();
  // §4.1: 144 SMP nodes, 8x 375 MHz Power3, 4 GB per node, Colony switch.
  EXPECT_EQ(s.nodes, 144);
  EXPECT_EQ(s.cpus_per_node, 8);
  EXPECT_DOUBLE_EQ(s.cpu_mhz, 375.0);
  EXPECT_DOUBLE_EQ(s.memory_gb_per_node, 4.0);
  EXPECT_EQ(s.total_cpus(), 1152);
}

TEST(MachineSpec, MachineForCpusGrowsThePaperMachineOnlyWhenNeeded) {
  // 1144 CPUs fill 143 nodes and leave one for the tool; 1152 do not.
  const MachineSpec fits = machine_for_cpus(1144);
  EXPECT_EQ(fits.name, "ibm-power3-sp");
  EXPECT_EQ(fits.nodes, 144);
  EXPECT_EQ(machine_for_cpus(1152).nodes, 145);
  // 4096 ranks need 512 nodes plus one for the tool.
  const MachineSpec grown = machine_for_cpus(4096);
  EXPECT_EQ(grown.name, "ibm-power3-sp-x513");
  EXPECT_EQ(grown.nodes, 513);
  EXPECT_EQ(grown.cpus_per_node, 8);
  EXPECT_THROW(machine_for_cpus(std::int64_t{1} << 40), Error);
}

TEST(MachineSpec, Ia32ProfileMatchesPaperTestbed) {
  const MachineSpec s = ia32_linux_cluster();
  // §5: 16-node IA32 Linux cluster, Pentium III.
  EXPECT_EQ(s.nodes, 16);
  EXPECT_EQ(s.cpus_per_node, 1);
  EXPECT_LT(s.bandwidth_bytes_per_us, ibm_power3_sp().bandwidth_bytes_per_us);
  // Faster clock => cheaper VT software costs than the Power3.
  EXPECT_LT(s.costs.vt_record, ibm_power3_sp().costs.vt_record);
}

TEST(MachineSpec, TransferTimeIntraVsInterNode) {
  const MachineSpec s = ibm_power3_sp();
  EXPECT_LT(s.transfer_time(0, 0, 1024), s.transfer_time(0, 1, 1024));
  // Latency floor for empty messages.
  EXPECT_GE(s.transfer_time(0, 1, 0), s.link_latency);
}

TEST(MachineSpec, TransferTimeGrowsWithSize) {
  const MachineSpec s = ibm_power3_sp();
  const auto small = s.transfer_time(0, 1, 1024);
  const auto large = s.transfer_time(0, 1, 1024 * 1024);
  EXPECT_GT(large, small);
  // Wire time for 1 MiB at ~350 B/us is ~3 ms.
  EXPECT_NEAR(sim::to_milliseconds(large - s.link_latency - s.per_message_software),
              1024.0 * 1024.0 / 350.0 / 1000.0, 0.5);
}

TEST(MachineSpec, BuiltinProfileLookup) {
  EXPECT_EQ(builtin_profile("ibm-power3-sp").name, "ibm-power3-sp");
  EXPECT_EQ(builtin_profile("ia32-linux").name, "ia32-linux");
  EXPECT_EQ(builtin_profile("generic").name, "generic");
  EXPECT_THROW(builtin_profile("cray-t3e"), Error);
}

TEST(MachineSpec, ConfigOverridesBaseProfile) {
  const auto cfg = ConfigFile::parse(R"(
[machine]
base = ibm-power3-sp
nodes = 8
link_latency_us = 5.5
[costs]
vt_record_ns = 999
)");
  const MachineSpec s = spec_from_config(cfg);
  EXPECT_EQ(s.nodes, 8);
  EXPECT_EQ(s.cpus_per_node, 8);  // inherited
  EXPECT_EQ(s.link_latency, sim::microseconds(5.5));
  EXPECT_EQ(s.costs.vt_record, 999);
  EXPECT_EQ(s.costs.vt_timestamp, ibm_power3_sp().costs.vt_timestamp);  // inherited
}

TEST(MachineSpec, ConfigValidatesRanges) {
  auto bad_nodes = ConfigFile::parse("[machine]\nnodes = 0\n");
  EXPECT_THROW(spec_from_config(bad_nodes), Error);
  auto bad_jitter = ConfigFile::parse("[machine]\nlatency_jitter = 1.5\n");
  EXPECT_THROW(spec_from_config(bad_jitter), Error);
}

TEST(MachineSpec, ConfigIntFieldsFailClosed) {
  // Each value once narrowed silently to an int (4294967304 loaded as 8);
  // the last overflows total_cpus().  The error names the file and the key.
  const std::pair<const char*, const char*> cases[] = {
      {"[machine]\ncpus_per_node = 4294967304\n", "cpus_per_node"},
      {"[machine]\nnodes = -4294967295\n", "nodes"},
      {"[fault]\nrequest_max_retries = 4294967297\n", "request_max_retries"},
      {"[fault]\nbreaker_failure_threshold = 4294967297\n", "breaker_failure_threshold"},
      {"[machine]\nnodes = 65536\ncpus_per_node = 65536\n", "cpus_per_node"},
  };
  for (const auto& [text, key] : cases) {
    try {
      spec_from_config(ConfigFile::parse(text, "big.ini"));
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("big.ini"), std::string::npos) << what;
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace dyntrace::machine

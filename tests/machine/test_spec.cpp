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

TEST(MachineSpec, EveryKeyRejectsAValueOutsideItsRange) {
  // One row per key spec_from_config reads ([machine] name takes any
  // string): a value the key cannot take throws an Error naming the file,
  // the section and the key.  Negative durations and costs once reached
  // the engine and aborted the run.
  struct Row {
    const char* section;
    const char* key;
    const char* bad;
  };
  const Row rows[] = {
      {"machine", "base", "cray-t3e"},
      {"machine", "nodes", "0"},
      {"machine", "cpus_per_node", "-1"},
      {"machine", "cpu_mhz", "0"},
      {"machine", "memory_gb_per_node", "-4"},
      {"machine", "link_latency_us", "-500"},
      {"machine", "bandwidth_bytes_per_us", "0"},
      {"machine", "per_message_software_us", "-1"},
      {"machine", "intra_latency_us", "-0.5"},
      {"machine", "intra_bandwidth_bytes_per_us", "-1"},
      {"machine", "latency_jitter", "1"},
      {"machine", "tenancy_factor", "-0.1"},
      {"costs", "vt_timestamp_ns", "-1"},
      {"costs", "vt_record_ns", "-5000000"},
      {"costs", "vt_filter_lookup_ns", "-1"},
      {"costs", "vt_call_overhead_ns", "-1"},
      {"costs", "vt_funcdef_ns", "-1"},
      {"costs", "vt_flush_per_record_ns", "-1"},
      {"costs", "vt_confsync_entry_ns", "-1"},
      {"costs", "vt_confsync_noise_mean_ns", "-1"},
      {"costs", "vt_stats_write_per_record_ns", "-1"},
      {"costs", "vt_stats_merge_per_record_ns", "-1"},
      {"costs", "vt_stats_bytes_per_func", "-1"},
      {"costs", "tramp_jump_ns", "-1"},
      {"costs", "tramp_save_regs_ns", "-1"},
      {"costs", "tramp_restore_regs_ns", "-1"},
      {"costs", "tramp_mini_dispatch_ns", "-1"},
      {"costs", "tramp_relocated_insn_ns", "-1"},
      {"costs", "dpcl_daemon_dispatch_ns", "-1"},
      {"costs", "dpcl_patch_per_probe_ns", "-1"},
      {"costs", "dpcl_parse_image_ns", "-1"},
      {"costs", "dpcl_connect_ns", "-1"},
      {"costs", "dpcl_suspend_resume_ns", "-1"},
      {"costs", "poe_spawn_base_ns", "-1"},
      {"costs", "poe_spawn_per_proc_ns", "-1"},
      {"fault", "request_deadline_ns", "0"},
      {"fault", "request_max_retries", "-1"},
      {"fault", "retry_backoff_base_ns", "-1"},
      {"fault", "overlay_child_timeout_ns", "0"},
      {"fault", "init_callback_timeout_ns", "-5"},
      {"fault", "sync_quorum", "0"},
      {"fault", "health_alpha", "1.5"},
      {"fault", "health_latency_ref_ns", "0"},
      {"fault", "breaker_failure_threshold", "0"},
      {"fault", "breaker_score_floor", "1"},
      {"fault", "breaker_cooldown_ns", "-1"},
  };
  for (const Row& row : rows) {
    const std::string text =
        std::string("[") + row.section + "]\n" + row.key + " = " + row.bad + "\n";
    try {
      spec_from_config(ConfigFile::parse(text, "f.ini"));
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      const std::string what = e.what();
      const std::string located = std::string("[") + row.section + "] " + row.key;
      EXPECT_NE(what.find("f.ini"), std::string::npos) << what;
      EXPECT_NE(what.find(located), std::string::npos) << what;
    }
  }
  // Not-a-number and infinite values are out of every real key's range.
  EXPECT_THROW(spec_from_config(ConfigFile::parse("[machine]\nlink_latency_us = nan\n")),
               Error);
  EXPECT_THROW(spec_from_config(ConfigFile::parse("[machine]\ncpu_mhz = inf\n")), Error);
  // The smallest value each range admits is accepted.
  const MachineSpec zeros = spec_from_config(ConfigFile::parse(
      "[machine]\nlink_latency_us = 0\ntenancy_factor = 0\n"
      "[costs]\nvt_record_ns = 0\n[fault]\ninit_callback_timeout_ns = 0\n"));
  EXPECT_EQ(zeros.link_latency, 0);
  EXPECT_EQ(zeros.costs.vt_record, 0);
  EXPECT_EQ(zeros.fault.init_callback_timeout, 0);
}

TEST(MachineSpec, LoadProfileTakesABuiltinNameOrAnIniPath) {
  EXPECT_EQ(load_profile("ia32-linux").name, "ia32-linux");
  EXPECT_EQ(load_profile(std::string(DYNTRACE_SOURCE_DIR) + "/configs/modern-cluster.ini").name,
            "modern-cluster");
  EXPECT_THROW(load_profile("cray-t3e"), Error);
  EXPECT_THROW(load_profile("/nonexistent/machine.ini"), Error);
}

}  // namespace
}  // namespace dyntrace::machine

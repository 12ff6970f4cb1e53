#include "machine/spec.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "support/common.hpp"

namespace dyntrace::machine {

sim::TimeNs MachineSpec::transfer_time(int src_node, int dst_node,
                                       std::int64_t bytes) const {
  DT_ASSERT(bytes >= 0);
  if (src_node == dst_node) {
    const double wire = static_cast<double>(bytes) / intra_bandwidth_bytes_per_us;
    return intra_latency + sim::microseconds(wire);
  }
  const double wire = static_cast<double>(bytes) / bandwidth_bytes_per_us;
  return link_latency + per_message_software + sim::microseconds(wire);
}

MachineSpec ibm_power3_sp() {
  MachineSpec s;
  s.name = "ibm-power3-sp";
  s.nodes = 144;
  s.cpus_per_node = 8;
  s.cpu_mhz = 375.0;
  s.memory_gb_per_node = 4.0;
  // Colony-class switch: ~20 us MPI latency, ~350 MB/s per link.
  s.link_latency = sim::microseconds(19);
  s.bandwidth_bytes_per_us = 350.0;
  s.per_message_software = sim::microseconds(2.5);
  s.intra_latency = sim::microseconds(1.2);
  s.intra_bandwidth_bytes_per_us = 1600.0;
  s.latency_jitter = 0.08;
  return s;
}

MachineSpec machine_for_cpus(std::int64_t cpus) {
  MachineSpec spec = ibm_power3_sp();
  const std::int64_t needed = (cpus + spec.cpus_per_node - 1) / spec.cpus_per_node + 1;
  if (needed <= spec.nodes) return spec;
  DT_EXPECT(needed <= std::numeric_limits<int>::max(), "no machine has ", cpus,
            " CPUs (", needed, " nodes would overflow the node count)");
  spec.nodes = static_cast<int>(needed);
  spec.name += "-x" + std::to_string(needed);
  return spec;
}

MachineSpec ia32_linux_cluster() {
  MachineSpec s;
  s.name = "ia32-linux";
  s.nodes = 16;
  s.cpus_per_node = 1;
  s.cpu_mhz = 800.0;  // Pentium III
  s.memory_gb_per_node = 0.5;
  // 100 Mb Ethernet-class fabric: higher wire latency than the SP switch,
  // but the faster CPU clock makes the *software* side of VT_confsync
  // cheaper -- which is why Fig. 8(c) sits an order of magnitude below 8(a).
  s.link_latency = sim::microseconds(55);
  s.bandwidth_bytes_per_us = 11.0;
  s.per_message_software = sim::microseconds(6);
  s.intra_latency = sim::microseconds(0.8);
  s.intra_bandwidth_bytes_per_us = 2500.0;
  s.latency_jitter = 0.10;
  // Pentium III at 800 MHz vs Power3 at 375 MHz: scale CPU-bound costs.
  const double cpu_scale = 375.0 / 800.0;
  auto scale = [cpu_scale](sim::TimeNs t) {
    return static_cast<sim::TimeNs>(std::llround(static_cast<double>(t) * cpu_scale));
  };
  s.costs.vt_timestamp = scale(s.costs.vt_timestamp);
  s.costs.vt_record = scale(s.costs.vt_record);
  s.costs.vt_filter_lookup = scale(s.costs.vt_filter_lookup);
  s.costs.vt_call_overhead = scale(s.costs.vt_call_overhead);
  s.costs.vt_funcdef = scale(s.costs.vt_funcdef);
  s.costs.vt_flush_per_record = scale(s.costs.vt_flush_per_record);
  s.costs.vt_stats_write_per_record = scale(s.costs.vt_stats_write_per_record);
  s.costs.vt_stats_merge_per_record = scale(s.costs.vt_stats_merge_per_record);
  // Lighter-weight OS and a faster clock: both confsync terms shrink more
  // than the raw clock ratio (calibrated to Fig. 8c's < 6 ms ceiling).
  s.costs.vt_confsync_entry = sim::microseconds(800);
  s.costs.vt_confsync_noise_mean = sim::microseconds(600);
  return s;
}

MachineSpec builtin_profile(const std::string& name) {
  if (name == "ibm-power3-sp") return ibm_power3_sp();
  if (name == "ia32-linux") return ia32_linux_cluster();
  if (name == "generic") return MachineSpec{};
  fail("unknown machine profile '", name, "' (expected ibm-power3-sp, ia32-linux or generic)");
}

namespace {

/// An int field, range-checked: a value that does not fit an int is a
/// located error naming the file and the key, never a silent narrowing.
int get_int_field(const ConfigFile& config, const char* section, const char* key,
                  int fallback) {
  const std::int64_t v = config.get_int(section, key, fallback);
  DT_EXPECT(v >= std::numeric_limits<int>::min() && v <= std::numeric_limits<int>::max(),
            config.origin(), ": [", section, "] ", key, " = ", v, " is out of range");
  return static_cast<int>(v);
}

}  // namespace

MachineSpec spec_from_config(const ConfigFile& config) {
  MachineSpec s = builtin_profile(config.get_string("machine", "base", "generic"));
  s.name = config.get_string("machine", "name", s.name);
  s.nodes = get_int_field(config, "machine", "nodes", s.nodes);
  s.cpus_per_node = get_int_field(config, "machine", "cpus_per_node", s.cpus_per_node);
  s.cpu_mhz = config.get_double("machine", "cpu_mhz", s.cpu_mhz);
  s.memory_gb_per_node = config.get_double("machine", "memory_gb_per_node", s.memory_gb_per_node);
  s.link_latency =
      sim::microseconds(config.get_double("machine", "link_latency_us",
                                          sim::to_microseconds(s.link_latency)));
  s.bandwidth_bytes_per_us =
      config.get_double("machine", "bandwidth_bytes_per_us", s.bandwidth_bytes_per_us);
  s.per_message_software =
      sim::microseconds(config.get_double("machine", "per_message_software_us",
                                          sim::to_microseconds(s.per_message_software)));
  s.intra_latency = sim::microseconds(
      config.get_double("machine", "intra_latency_us", sim::to_microseconds(s.intra_latency)));
  s.intra_bandwidth_bytes_per_us =
      config.get_double("machine", "intra_bandwidth_bytes_per_us", s.intra_bandwidth_bytes_per_us);
  s.latency_jitter = config.get_double("machine", "latency_jitter", s.latency_jitter);
  s.tenancy_factor = config.get_double("machine", "tenancy_factor", s.tenancy_factor);

  DT_EXPECT(s.nodes >= 1, "machine.nodes must be >= 1");
  DT_EXPECT(s.cpus_per_node >= 1, "machine.cpus_per_node must be >= 1");
  // total_cpus() is an int.
  DT_EXPECT(static_cast<std::int64_t>(s.nodes) * s.cpus_per_node <=
                std::numeric_limits<int>::max(),
            config.origin(), ": [machine] nodes x cpus_per_node = ", s.nodes, " x ",
            s.cpus_per_node, " is out of range");
  DT_EXPECT(s.bandwidth_bytes_per_us > 0, "machine.bandwidth must be positive");
  DT_EXPECT(s.latency_jitter >= 0 && s.latency_jitter < 1,
            "machine.latency_jitter must be in [0, 1)");
  DT_EXPECT(s.tenancy_factor >= 0, "machine.tenancy_factor must be >= 0");

  auto cost_ns = [&config](const char* key, sim::TimeNs fallback) {
    return static_cast<sim::TimeNs>(config.get_int("costs", key, fallback));
  };
  CostModel& c = s.costs;
  c.vt_timestamp = cost_ns("vt_timestamp_ns", c.vt_timestamp);
  c.vt_record = cost_ns("vt_record_ns", c.vt_record);
  c.vt_filter_lookup = cost_ns("vt_filter_lookup_ns", c.vt_filter_lookup);
  c.vt_call_overhead = cost_ns("vt_call_overhead_ns", c.vt_call_overhead);
  c.vt_funcdef = cost_ns("vt_funcdef_ns", c.vt_funcdef);
  c.vt_flush_per_record = cost_ns("vt_flush_per_record_ns", c.vt_flush_per_record);
  c.vt_confsync_entry = cost_ns("vt_confsync_entry_ns", c.vt_confsync_entry);
  c.vt_confsync_noise_mean = cost_ns("vt_confsync_noise_mean_ns", c.vt_confsync_noise_mean);
  c.vt_stats_write_per_record =
      cost_ns("vt_stats_write_per_record_ns", c.vt_stats_write_per_record);
  c.vt_stats_merge_per_record =
      cost_ns("vt_stats_merge_per_record_ns", c.vt_stats_merge_per_record);
  c.vt_stats_bytes_per_func =
      config.get_int("costs", "vt_stats_bytes_per_func", c.vt_stats_bytes_per_func);
  c.tramp_jump = cost_ns("tramp_jump_ns", c.tramp_jump);
  c.tramp_save_regs = cost_ns("tramp_save_regs_ns", c.tramp_save_regs);
  c.tramp_restore_regs = cost_ns("tramp_restore_regs_ns", c.tramp_restore_regs);
  c.tramp_mini_dispatch = cost_ns("tramp_mini_dispatch_ns", c.tramp_mini_dispatch);
  c.tramp_relocated_insn = cost_ns("tramp_relocated_insn_ns", c.tramp_relocated_insn);
  c.dpcl_daemon_dispatch = cost_ns("dpcl_daemon_dispatch_ns", c.dpcl_daemon_dispatch);
  c.dpcl_patch_per_probe = cost_ns("dpcl_patch_per_probe_ns", c.dpcl_patch_per_probe);
  c.dpcl_parse_image = cost_ns("dpcl_parse_image_ns", c.dpcl_parse_image);
  c.dpcl_connect = cost_ns("dpcl_connect_ns", c.dpcl_connect);
  c.dpcl_suspend_resume = cost_ns("dpcl_suspend_resume_ns", c.dpcl_suspend_resume);
  c.poe_spawn_base = cost_ns("poe_spawn_base_ns", c.poe_spawn_base);
  c.poe_spawn_per_proc = cost_ns("poe_spawn_per_proc_ns", c.poe_spawn_per_proc);

  auto fault_ns = [&config](const char* key, sim::TimeNs fallback) {
    return static_cast<sim::TimeNs>(config.get_int("fault", key, fallback));
  };
  FaultTolerance& f = s.fault;
  f.request_deadline = fault_ns("request_deadline_ns", f.request_deadline);
  f.request_max_retries =
      get_int_field(config, "fault", "request_max_retries", f.request_max_retries);
  f.retry_backoff_base = fault_ns("retry_backoff_base_ns", f.retry_backoff_base);
  f.overlay_child_timeout = fault_ns("overlay_child_timeout_ns", f.overlay_child_timeout);
  f.init_callback_timeout = fault_ns("init_callback_timeout_ns", f.init_callback_timeout);
  f.sync_quorum = config.get_double("fault", "sync_quorum", f.sync_quorum);
  f.health_alpha = config.get_double("fault", "health_alpha", f.health_alpha);
  f.health_latency_ref = fault_ns("health_latency_ref_ns", f.health_latency_ref);
  f.breaker_failure_threshold =
      get_int_field(config, "fault", "breaker_failure_threshold", f.breaker_failure_threshold);
  f.breaker_score_floor =
      config.get_double("fault", "breaker_score_floor", f.breaker_score_floor);
  f.breaker_cooldown = fault_ns("breaker_cooldown_ns", f.breaker_cooldown);
  DT_EXPECT(f.health_alpha > 0 && f.health_alpha <= 1.0,
            "fault.health_alpha must be in (0, 1]");
  DT_EXPECT(f.health_latency_ref > 0, "fault.health_latency_ref_ns must be positive");
  DT_EXPECT(f.breaker_failure_threshold >= 1,
            "fault.breaker_failure_threshold must be >= 1");
  DT_EXPECT(f.breaker_score_floor >= 0 && f.breaker_score_floor < 1.0,
            "fault.breaker_score_floor must be in [0, 1)");
  DT_EXPECT(f.breaker_cooldown > 0, "fault.breaker_cooldown_ns must be positive");
  DT_EXPECT(f.request_deadline > 0, "fault.request_deadline_ns must be positive");
  DT_EXPECT(f.request_max_retries >= 0, "fault.request_max_retries must be >= 0");
  DT_EXPECT(f.overlay_child_timeout > 0, "fault.overlay_child_timeout_ns must be positive");
  DT_EXPECT(f.sync_quorum > 0 && f.sync_quorum <= 1.0,
            "fault.sync_quorum must be in (0, 1]");
  return s;
}

}  // namespace dyntrace::machine

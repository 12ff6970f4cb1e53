#include "machine/spec.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "support/common.hpp"
#include "support/strings.hpp"

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

MachineSpec load_profile(const std::string& name_or_path) {
  if (str::ends_with(name_or_path, ".ini")) {
    return spec_from_config(ConfigFile::load(name_or_path));
  }
  return builtin_profile(name_or_path);
}

namespace {

/// The interval a real-valued profile key takes; an open end excludes
/// its bound.  NaN lies in none.
struct Range {
  double lo;
  double hi;
  bool lo_open;
  bool hi_open;
};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range kPositive{0, kInf, true, true};
constexpr Range kNonNegative{0, kInf, false, true};
constexpr Range kFraction{0, 1, false, true};       // [0, 1)
constexpr Range kShare{0, 1, true, false};          // (0, 1]
constexpr Range kMicroseconds{0, 1e15, false, false};  // fits the ns clock

/// Reads a profile's keys and fails closed: a value outside its key's
/// range is a dyntrace::Error naming the file, the section and the key.
struct ProfileReader {
  const ConfigFile& config;

  /// A whole number (nanoseconds, bytes) of at least `min`.
  std::int64_t at_least(const char* section, const char* key, std::int64_t fallback,
                        std::int64_t min = 0) const {
    const std::int64_t v = config.get_int(section, key, fallback);
    DT_EXPECT(v >= min, config.origin(), ": [", section, "] ", key, " = ", v,
              " is out of range (must be >= ", min, ")");
    return v;
  }

  /// An int of at least `min`.
  int count(const char* section, const char* key, int fallback, int min) const {
    const std::int64_t v = at_least(section, key, fallback, min);
    DT_EXPECT(v <= std::numeric_limits<int>::max(), config.origin(), ": [", section, "] ",
              key, " = ", v, " is out of range");
    return static_cast<int>(v);
  }

  /// A number in `r`.
  double real(const char* section, const char* key, double fallback, const Range& r) const {
    const double v = config.get_double(section, key, fallback);
    DT_EXPECT((r.lo_open ? v > r.lo : v >= r.lo) && (r.hi_open ? v < r.hi : v <= r.hi),
              config.origin(), ": [", section, "] ", key, " = ", v, " is out of range ",
              r.lo_open ? "(" : "[", r.lo, ", ", r.hi, r.hi_open ? ")" : "]");
    return v;
  }
};

}  // namespace

MachineSpec spec_from_config(const ConfigFile& config) {
  MachineSpec s;
  try {
    s = builtin_profile(config.get_string("machine", "base", "generic"));
  } catch (const Error& e) {
    fail(config.origin(), ": [machine] base: ", e.what());
  }
  const ProfileReader in{config};
  s.name = config.get_string("machine", "name", s.name);
  s.nodes = in.count("machine", "nodes", s.nodes, 1);
  s.cpus_per_node = in.count("machine", "cpus_per_node", s.cpus_per_node, 1);
  // total_cpus() is an int.
  DT_EXPECT(static_cast<std::int64_t>(s.nodes) * s.cpus_per_node <=
                std::numeric_limits<int>::max(),
            config.origin(), ": [machine] nodes x cpus_per_node = ", s.nodes, " x ",
            s.cpus_per_node, " is out of range");
  s.cpu_mhz = in.real("machine", "cpu_mhz", s.cpu_mhz, kPositive);
  s.memory_gb_per_node = in.real("machine", "memory_gb_per_node", s.memory_gb_per_node, kPositive);
  s.link_latency = sim::microseconds(in.real(
      "machine", "link_latency_us", sim::to_microseconds(s.link_latency), kMicroseconds));
  s.bandwidth_bytes_per_us =
      in.real("machine", "bandwidth_bytes_per_us", s.bandwidth_bytes_per_us, kPositive);
  s.per_message_software =
      sim::microseconds(in.real("machine", "per_message_software_us",
                                sim::to_microseconds(s.per_message_software), kMicroseconds));
  s.intra_latency = sim::microseconds(in.real(
      "machine", "intra_latency_us", sim::to_microseconds(s.intra_latency), kMicroseconds));
  s.intra_bandwidth_bytes_per_us = in.real("machine", "intra_bandwidth_bytes_per_us",
                                           s.intra_bandwidth_bytes_per_us, kPositive);
  s.latency_jitter = in.real("machine", "latency_jitter", s.latency_jitter, kFraction);
  s.tenancy_factor = in.real("machine", "tenancy_factor", s.tenancy_factor, kNonNegative);

  CostModel& c = s.costs;
  c.vt_timestamp = in.at_least("costs", "vt_timestamp_ns", c.vt_timestamp);
  c.vt_record = in.at_least("costs", "vt_record_ns", c.vt_record);
  c.vt_filter_lookup = in.at_least("costs", "vt_filter_lookup_ns", c.vt_filter_lookup);
  c.vt_call_overhead = in.at_least("costs", "vt_call_overhead_ns", c.vt_call_overhead);
  c.vt_funcdef = in.at_least("costs", "vt_funcdef_ns", c.vt_funcdef);
  c.vt_flush_per_record = in.at_least("costs", "vt_flush_per_record_ns", c.vt_flush_per_record);
  c.vt_confsync_entry = in.at_least("costs", "vt_confsync_entry_ns", c.vt_confsync_entry);
  c.vt_confsync_noise_mean =
      in.at_least("costs", "vt_confsync_noise_mean_ns", c.vt_confsync_noise_mean);
  c.vt_stats_write_per_record =
      in.at_least("costs", "vt_stats_write_per_record_ns", c.vt_stats_write_per_record);
  c.vt_stats_merge_per_record =
      in.at_least("costs", "vt_stats_merge_per_record_ns", c.vt_stats_merge_per_record);
  c.vt_stats_bytes_per_func =
      in.at_least("costs", "vt_stats_bytes_per_func", c.vt_stats_bytes_per_func);
  c.tramp_jump = in.at_least("costs", "tramp_jump_ns", c.tramp_jump);
  c.tramp_save_regs = in.at_least("costs", "tramp_save_regs_ns", c.tramp_save_regs);
  c.tramp_restore_regs = in.at_least("costs", "tramp_restore_regs_ns", c.tramp_restore_regs);
  c.tramp_mini_dispatch = in.at_least("costs", "tramp_mini_dispatch_ns", c.tramp_mini_dispatch);
  c.tramp_relocated_insn = in.at_least("costs", "tramp_relocated_insn_ns", c.tramp_relocated_insn);
  c.dpcl_daemon_dispatch = in.at_least("costs", "dpcl_daemon_dispatch_ns", c.dpcl_daemon_dispatch);
  c.dpcl_patch_per_probe = in.at_least("costs", "dpcl_patch_per_probe_ns", c.dpcl_patch_per_probe);
  c.dpcl_parse_image = in.at_least("costs", "dpcl_parse_image_ns", c.dpcl_parse_image);
  c.dpcl_connect = in.at_least("costs", "dpcl_connect_ns", c.dpcl_connect);
  c.dpcl_suspend_resume = in.at_least("costs", "dpcl_suspend_resume_ns", c.dpcl_suspend_resume);
  c.poe_spawn_base = in.at_least("costs", "poe_spawn_base_ns", c.poe_spawn_base);
  c.poe_spawn_per_proc = in.at_least("costs", "poe_spawn_per_proc_ns", c.poe_spawn_per_proc);

  FaultTolerance& f = s.fault;
  f.request_deadline = in.at_least("fault", "request_deadline_ns", f.request_deadline, 1);
  f.request_max_retries = in.count("fault", "request_max_retries", f.request_max_retries, 0);
  f.retry_backoff_base = in.at_least("fault", "retry_backoff_base_ns", f.retry_backoff_base);
  f.overlay_child_timeout =
      in.at_least("fault", "overlay_child_timeout_ns", f.overlay_child_timeout, 1);
  f.init_callback_timeout =
      in.at_least("fault", "init_callback_timeout_ns", f.init_callback_timeout);
  f.sync_quorum = in.real("fault", "sync_quorum", f.sync_quorum, kShare);
  f.health_alpha = in.real("fault", "health_alpha", f.health_alpha, kShare);
  f.health_latency_ref = in.at_least("fault", "health_latency_ref_ns", f.health_latency_ref, 1);
  f.breaker_failure_threshold =
      in.count("fault", "breaker_failure_threshold", f.breaker_failure_threshold, 1);
  f.breaker_score_floor =
      in.real("fault", "breaker_score_floor", f.breaker_score_floor, kFraction);
  f.breaker_cooldown = in.at_least("fault", "breaker_cooldown_ns", f.breaker_cooldown, 1);
  return s;
}

}  // namespace dyntrace::machine

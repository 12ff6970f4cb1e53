#include "machine/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "support/common.hpp"
#include "support/rng.hpp"

namespace dyntrace::machine {

namespace {

/// Fold one value into a hash state (SplitMix64 finaliser per step).
constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return SplitMix64(h ^ v).next();
}

}  // namespace

Cluster::Cluster(sim::Engine& engine, MachineSpec spec, std::uint64_t noise_seed)
    : engine_(&engine), spec_(std::move(spec)), noise_seed_(noise_seed) {}

std::vector<Cluster::Placement> Cluster::place_block(int units, int cpus_per_unit,
                                                     int first_cpu) const {
  DT_EXPECT(units >= 1, "placement needs at least one unit");
  DT_EXPECT(cpus_per_unit >= 1, "each unit needs at least one cpu");
  DT_EXPECT(first_cpu >= 0 && first_cpu < spec_.cpus_per_node, "first cpu ", first_cpu,
            " out of range on a ", spec_.cpus_per_node, "-cpu node of ", spec_.name);
  DT_EXPECT(first_cpu + cpus_per_unit <= spec_.cpus_per_node, "a unit of ", cpus_per_unit,
            " cpus at offset ", first_cpu, " does not fit on a ", spec_.cpus_per_node,
            "-cpu node of ", spec_.name);
  const int units_per_node = (spec_.cpus_per_node - first_cpu) / cpus_per_unit;
  const int nodes_needed = (units + units_per_node - 1) / units_per_node;
  DT_EXPECT(nodes_needed <= spec_.nodes, "machine ", spec_.name, " has ", spec_.nodes,
            " nodes; ", units, " x ", cpus_per_unit, " cpus needs ", nodes_needed);

  std::vector<Placement> out;
  out.reserve(static_cast<std::size_t>(units));
  for (int u = 0; u < units; ++u) {
    const int node = u / units_per_node;
    const int cpu = first_cpu + (u % units_per_node) * cpus_per_unit;
    out.push_back(Placement{node, cpu});
  }
  return out;
}

void Cluster::register_job(JobSpan span) {
  DT_EXPECT(!span.name.empty(), "a job span needs a name");
  DT_EXPECT(span.first_node >= 0 && span.node_count >= 1 &&
                span.first_node + span.node_count <= spec_.nodes,
            "job '", span.name, "' node span [", span.first_node, ", ",
            span.first_node + span.node_count, ") out of range on ", spec_.name);
  DT_EXPECT(span.first_cpu >= 0 && span.first_cpu < spec_.cpus_per_node, "job '",
            span.name, "' first cpu ", span.first_cpu, " out of range on ", spec_.name);
  for (const JobSpan& existing : jobs_) {
    DT_EXPECT(existing.name != span.name, "job '", span.name, "' registered twice");
  }
  if (tenants_.empty()) tenants_.assign(static_cast<std::size_t>(spec_.nodes), 0);
  for (int n = span.first_node; n < span.first_node + span.node_count; ++n) {
    ++tenants_[static_cast<std::size_t>(n)];
  }
  jobs_.push_back(std::move(span));
}

int Cluster::node_tenants(int node) const {
  if (tenants_.empty()) return 0;
  DT_ASSERT(node >= 0 && node < spec_.nodes, "node ", node, " out of range on ",
            spec_.name);
  return tenants_[static_cast<std::size_t>(node)];
}

sim::TimeNs Cluster::jittered(sim::TimeNs base, std::uint64_t salt) const {
  if (spec_.latency_jitter <= 0.0 || base <= 0) return base;
  // Multiplicative noise in [1 - j, 1 + j); a pure function of (seed, salt)
  // so no message's draw depends on the order of any other.
  const std::uint64_t z = fold(noise_seed_, salt);
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
  const double factor = 1.0 + spec_.latency_jitter * (2.0 * u - 1.0);
  return static_cast<sim::TimeNs>(std::llround(static_cast<double>(base) * factor));
}

sim::TimeNs Cluster::message_delay(int src_node, int dst_node, std::int64_t bytes,
                                   sim::TimeNs now) {
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(static_cast<std::uint64_t>(bytes), std::memory_order_relaxed);
  std::uint64_t salt = 0x6d657373616765ULL;  // "message"
  salt = fold(salt, static_cast<std::uint64_t>(src_node));
  salt = fold(salt, static_cast<std::uint64_t>(dst_node));
  salt = fold(salt, static_cast<std::uint64_t>(bytes));
  salt = fold(salt, static_cast<std::uint64_t>(now));
  sim::TimeNs base = spec_.transfer_time(src_node, dst_node, bytes);
  // Multi-tenant contention (DESIGN.md §15): a message touching a node that
  // hosts T co-resident jobs pays a (1 + f*(T-1)) surcharge -- the NIC and
  // switch port are shared.  The factor is fixed at setup time.
  const int tenants = std::max(node_tenants(src_node), node_tenants(dst_node));
  if (tenants > 1 && spec_.tenancy_factor > 0) {
    base = static_cast<sim::TimeNs>(std::llround(
        static_cast<double>(base) *
        (1.0 + spec_.tenancy_factor * static_cast<double>(tenants - 1))));
  }
  return jittered(base, salt);
}

}  // namespace dyntrace::machine

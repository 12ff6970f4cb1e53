// The simulated cluster: engine + machine spec + deterministic noise.
//
// A Cluster owns no processes itself; the proc layer places SimProcesses on
// nodes via place_block() and charges communication time via
// message_delay().  Latency jitter is a stateless hash of (seed, message
// identity) rather than a shared RNG stream, so the delay of a message does
// not depend on the order other messages draw noise.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "machine/spec.hpp"
#include "sim/engine.hpp"

namespace dyntrace::fault {
class FaultInjector;
}  // namespace dyntrace::fault

namespace dyntrace::machine {

class Cluster {
 public:
  struct Placement {
    int node = 0;
    int cpu = 0;
  };

  Cluster(sim::Engine& engine, MachineSpec spec, std::uint64_t noise_seed = 0x0dd5eed);
  ~Cluster();

  /// Register a job that shares the machine (multi-job runs; DESIGN.md
  /// §15): the nodes place_block(units, cpus_per_unit, first_cpu) puts it
  /// on, counted from node `first_node`.  Jobs
  /// may share physical nodes -- each takes a disjoint CPU range -- and
  /// each registration raises the tenant count of the nodes the job
  /// covers; once any node carries more than one tenant, messages touching
  /// it pay the MachineSpec::tenancy_factor contention surcharge.  A
  /// cluster no job is registered on (every single-job Launch) keeps no
  /// tenant table.  Returns the last node the job covers.
  int register_job(const std::string& name, int first_node, int units, int cpus_per_unit,
                   int first_cpu);

  /// Number of jobs whose spans cover `node` (0 when no jobs registered).
  int node_tenants(int node) const;

  /// The engine every process, daemon and message on this cluster runs on.
  sim::Engine& engine() { return *engine_; }

  const MachineSpec& spec() const { return spec_; }

  /// Install a fault plan's injector (not owned) in place of the cluster's
  /// own injector over an empty plan.  Every layer always runs the one
  /// fault-tolerant protocol against fault_injector(): a run without a
  /// plan is the same run as one with an empty plan.
  void set_fault_injector(fault::FaultInjector& injector) { fault_ = &injector; }
  fault::FaultInjector& fault_injector() const { return *fault_; }

  /// Block placement: consecutive units fill a node's CPUs, then spill to
  /// the next node (the POE default).  Each unit occupies `cpus_per_unit`
  /// consecutive CPUs (an OpenMP process occupies one CPU per thread).
  /// `first_cpu` offsets every unit's CPU range so that jobs sharing
  /// physical nodes occupy disjoint CPUs (multi-job runs; 0 for the whole
  /// node).  Throws dyntrace::Error if the machine is too small.
  std::vector<Placement> place_block(int units, int cpus_per_unit,
                                     int first_cpu = 0) const;

  /// One-way delay for a message of `bytes` between nodes, with
  /// deterministic jitter applied (models OS noise / switch contention and
  /// the "differing delays" of DPCL daemon contact the paper discusses).
  /// `now` is the *sender's* virtual send time; it salts the jitter so that
  /// repeated sends over one path draw fresh noise.
  sim::TimeNs message_delay(int src_node, int dst_node, std::int64_t bytes,
                            sim::TimeNs now);

  /// Apply the cluster's jitter model to any base latency.  The same
  /// (seed, salt) always produces the same draw; vary the salt per use.
  sim::TimeNs jittered(sim::TimeNs base, std::uint64_t salt) const;

  /// Messages accounted so far (for tests and trace statistics).
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  sim::Engine* engine_;
  std::unique_ptr<fault::FaultInjector> no_faults_;  ///< empty plan, fires nothing
  fault::FaultInjector* fault_;
  MachineSpec spec_;
  std::uint64_t noise_seed_;
  /// Per-node tenant counts of the registered jobs (empty until one is
  /// registered).  Written only at setup time (register_job), read-only
  /// while the engine runs, so the contention surcharge is a pure function
  /// of message identity.
  std::vector<int> tenants_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace dyntrace::machine

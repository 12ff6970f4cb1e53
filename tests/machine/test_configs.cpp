// The machine-profile .ini files shipped in configs/ must stay loadable.
#include <gtest/gtest.h>

#include "machine/spec.hpp"

namespace dyntrace::machine {
namespace {

std::string repo_config(const std::string& name) {
  return std::string(DYNTRACE_SOURCE_DIR) + "/configs/" + name;
}

TEST(ShippedConfigs, IbmProfileLoads) {
  const MachineSpec s = spec_from_config(ConfigFile::load(repo_config("ibm-power3-sp.ini")));
  EXPECT_EQ(s.name, "ibm-power3-sp");
  EXPECT_EQ(s.nodes, 144);
  EXPECT_EQ(s.cpus_per_node, 8);
}

TEST(ShippedConfigs, Ia32ProfileLoads) {
  const MachineSpec s = spec_from_config(ConfigFile::load(repo_config("ia32-linux.ini")));
  EXPECT_EQ(s.name, "ia32-linux");
  EXPECT_EQ(s.nodes, 16);
}

TEST(ShippedConfigs, ModernClusterProfileLoads) {
  const MachineSpec s = spec_from_config(ConfigFile::load(repo_config("modern-cluster.ini")));
  EXPECT_EQ(s.name, "modern-cluster");
  EXPECT_EQ(s.nodes, 64);
  EXPECT_EQ(s.cpus_per_node, 32);
  // Fast clock: instrumentation costs far below the Power3's.
  EXPECT_LT(s.costs.vt_record, ibm_power3_sp().costs.vt_record / 2);
  EXPECT_LT(s.link_latency, ibm_power3_sp().link_latency);
}

}  // namespace
}  // namespace dyntrace::machine

// The seed network engine (array-of-structs packets, full port sweep each
// cycle), kept as a correctness oracle: for any config it produces
// bit-identical results — statistics, histograms, covariances, and
// telemetry — to run_network. Orders of magnitude slower on large
// topologies; it exists for the equivalence suite and A/B debugging.
#pragma once

#include "sim/network.hpp"

namespace ksw::sim {

[[nodiscard]] NetworkResults run_network_reference(const NetworkConfig& cfg);

}  // namespace ksw::sim

#pragma once
/// \file checks.hpp
/// Independent checks of a finished flow run, used by the correctness gate.
/// Each returns an empty string when the run passes, else what failed.

#include <cstdint>
#include <string>

#include "flow/flow.hpp"

namespace perfbench {

/// The mapped netlist computes its base network's functions: `rounds`
/// batches of 64 random patterns through simulate64 on both sides.
std::string check_equivalence(const cals::BaseNetwork& net, const cals::MappedNetlist& mapped,
                              std::uint64_t seed, std::uint32_t rounds);

/// Every movable object sits in a row, on a site, inside the core, and no
/// two objects of a row overlap.
std::string check_placement(const cals::PlaceGraph& graph, const cals::Floorplan& floorplan,
                            const cals::Placement& placement);

/// Every routed segment is a contiguous gcell walk between its pins: the
/// segments are rebuilt independently from the placement (rectilinear MST
/// over the pin gcells) and each routed path must join its segment's ends
/// through 4-adjacent gcells.
std::string check_routes(const cals::PlaceGraph& graph, const cals::Placement& placement,
                         const cals::Floorplan& floorplan, const cals::RGridOptions& rgrid,
                         const cals::RouteResult& routed);

/// All three checks on a run, prefixed with the design name on failure.
std::string check_run(const std::string& name, const cals::BaseNetwork& net,
                      const cals::Floorplan& floorplan, const cals::RGridOptions& rgrid,
                      const cals::FlowRun& run, std::uint64_t seed);

}  // namespace perfbench

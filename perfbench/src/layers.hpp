#pragma once
/// \file layers.hpp
/// The benchmark's calls into each layer's public functions, in the order
/// the flow makes them. The timed loops and the traced replay share these
/// functions; with a Tracer attached each call is wrapped in a span named
/// after the layer it enters.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "library/library.hpp"
#include "map/mapper.hpp"
#include "spans.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// One synthetic design, as the program sees it: PLA text.
struct Design {
  std::string name;
  std::string pla;
};

/// Design `index` of a workload: the spla-like (even index) or pdc-like
/// (odd index) preset spec at `scale`, with the generator seed replaced by
/// one derived from the run seed and the index.
Design make_design(double scale, std::uint64_t seed, std::size_t index);

/// The paper calibration bench/common.hpp uses for every table: the mapper's
/// incremental-update placement, the calibrated routing supply and 40
/// rip-up-and-reroute iterations.
cals::FlowOptions paper_options(std::uint32_t num_threads);

/// How the floorplan is sized from the network's (pre-compact) base-gate
/// count at a target utilization.
enum class FloorplanRule : std::uint8_t {
  kJobSpec,  ///< exactly as svc::build_job_design (row-quantized square die)
  kExact,    ///< same area estimate, die width trimmed to hit the target exactly
};

cals::Floorplan size_floorplan(std::uint32_t base_gates, double util, FloorplanRule rule,
                               const cals::TechParams& tech);

/// The front half of a job, one public call at a time: parse_pla_string and
/// synthesize_base (layer sop), then lower_base_network + global_place
/// (place) for the initial placement, adopted through
/// DesignContext::PrecompiledParts — bit-identical to the DesignContext
/// constructor, which makes the same calls without a pool.
struct BuiltContext {
  std::unique_ptr<cals::DesignContext> context;
  std::uint32_t base_gates = 0;  ///< SynthesisStats::base_gates
};
cals::Result<BuiltContext> build_context(const std::string& pla_text,
                                         const cals::Library* library, double util,
                                         FloorplanRule rule, cals::ThreadPool* pool,
                                         Tracer* tracer);

/// build_match_database for the options' {partition, metric} (layer map).
std::shared_ptr<const cals::MatchDatabase> build_database(const cals::DesignContext& context,
                                                          const cals::FlowOptions& options,
                                                          cals::ThreadPool* pool,
                                                          Tracer* tracer);

/// One K evaluation composed exactly as DesignContext::run does it:
/// map_network_cached, MappedNetlist::lower + seed_placement (or
/// global_place), legalize, route (or Router::run + rcm::repair), run_sta,
/// then the FlowMetrics the flow derives from them. Timing fields of the
/// metrics stay zero.
cals::FlowRun evaluate_layers(const cals::DesignContext& context,
                              const cals::MatchDatabase& database,
                              const cals::FlowOptions& options, cals::ThreadPool* pool,
                              Tracer* tracer);

/// True when every FlowMetrics field that does not measure time or thread
/// count is bit-identical.
bool same_qor(const cals::FlowMetrics& a, const cals::FlowMetrics& b);
std::string describe_qor(const cals::FlowMetrics& m);

/// Every FlowMetrics field in the result cache's exact wire form — equal
/// strings mean bit-identical metrics, timing fields included.
std::string metrics_json(const cals::FlowMetrics& m);

}  // namespace perfbench

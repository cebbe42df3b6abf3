#pragma once
/// \file workloads.hpp
/// The benchmark's workloads. Each returns every end-to-end metric (plain
/// run) or every per-layer metric (traced run), with its correctness gate
/// already applied.

#include "common.hpp"

namespace perfbench {

/// kloop_cliff: the Fig. 3 K loop, one caller, one design at a time.
RunResult run_kloop(const Config& config);
RunResult trace_kloop(const Config& config);

/// serve_cold / serve_hot: two closed-loop clients of an in-process
/// FlowService (text-cold jobs / dataset-served K sweeps with repeats).
RunResult run_serve(const Config& config, bool hot);
RunResult trace_serve(const Config& config, bool hot);

}  // namespace perfbench

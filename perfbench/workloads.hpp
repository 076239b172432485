#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads. Each fills a Result: untraced runs put
/// every end-to-end metric in `metrics`, traced runs every per-layer metric.

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Per-layer metric names, in the order BENCHMARK.json lists them. Traced
/// runs report every one; a layer the workload does not exercise reads 0.
const std::vector<std::string>& per_layer_names();

/// bbh_global, bbh_adaptive and dist_4rank.
bool is_solver_workload(const std::string& name);
void run_solver_workload(const Args& args, Result& r);

/// serve_mix.
void run_serve_workload(const Args& args, Result& r);

}  // namespace perfbench

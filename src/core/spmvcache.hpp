// Umbrella header: the public API of the spmvcache library.
//
// A downstream user typically needs:
//   * a matrix        — sparse/csr.hpp, sparse/matrix_market.hpp, gen/...
//   * the model       — run_method_a / run_method_b (model/...)
//   * the "hardware"  — run_sector_sweep (core/experiment.hpp)
//   * interpretation  — classify (model/classify.hpp), estimate_timing
#pragma once

#include "cachesim/a64fx.hpp"
#include "cachesim/hierarchy.hpp"
#include "core/batch.hpp"
#include "core/collection.hpp"
#include "core/deadline.hpp"
#include "core/experiment.hpp"
#include "core/matrix_source.hpp"
#include "core/model_runner.hpp"
#include "kernels/cg.hpp"
#include "kernels/spmv.hpp"
#include "kernels/spmv_merge.hpp"
#include "model/analytic.hpp"
#include "model/classify.hpp"
#include "model/method_a.hpp"
#include "model/method_b.hpp"
#include "perf/timing.hpp"
#include "reuse/histogram.hpp"
#include "reuse/naive.hpp"
#include "reuse/olken.hpp"
#include "sparse/csr.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/block.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/rmat.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/gen/suite.hpp"
#include "sparse/gen/table1.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/matrix_stats.hpp"
#include "sparse/partition.hpp"
#include "sparse/rcm.hpp"
#include "trace/spmv_trace.hpp"
#include "util/fault.hpp"
#include "util/status.hpp"

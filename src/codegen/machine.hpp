#pragma once
/// \file machine.hpp
/// \brief A register machine for the scheduled algebraic stage: linear-scan
/// register allocation with a fixed register budget (56 registers per
/// thread, the paper's __launch_bounds__(343,3) setting) and Belady
/// furthest-next-use eviction. Evicted temporaries spill; the compiler
/// reports spill load/store bytes exactly as Table II's ptxas columns do,
/// and the interpreter executes the resulting micro-ops so that spills cost
/// real time (Fig. 11's mechanism).

#include <cstdint>
#include <vector>

#include "codegen/expr.hpp"
#include "codegen/scheduler.hpp"

namespace dgr::codegen {

/// Table II row: spill traffic of one compiled variant.
struct SpillStats {
  std::uint64_t spill_store_bytes = 0;
  std::uint64_t spill_load_bytes = 0;
  int max_live = 0;       ///< live computed temporaries (Fig. 10 metric)
  int spill_slots = 0;    ///< distinct spilled values
  std::size_t num_ops = 0;///< compute micro-ops
};

/// Micro-operations executed by the interpreter.
struct MicroOp {
  enum Kind : std::uint8_t {
    kLoadInput,   ///< reg[dst] = inputs[input_id]      (global load)
    kLoadConst,   ///< reg[dst] = cval
    kLoadSpill,   ///< reg[dst] = spill[slot]           (spill load)
    kStoreSpill,  ///< spill[slot] = reg[dst]           (spill store)
    kCompute,     ///< reg[dst] = op(reg[a], reg[b])
    kStoreOutput, ///< outputs[out_idx] = reg[dst]
  };
  Kind kind;
  Op op = Op::kAdd;
  std::int16_t dst = 0, a = 0, b = 0;
  std::int32_t slot = 0;      // spill slot / input_id / out_idx
  double cval = 0;
};

/// Compile a (graph, outputs, strategy) triple into an executable
/// register-machine program.
class CompiledKernel {
 public:
  CompiledKernel(const Graph& g, const std::vector<std::int32_t>& outputs,
                 Strategy strategy, int num_regs = 56);

  const SpillStats& stats() const { return stats_; }
  Strategy strategy() const { return strategy_; }
  int num_regs() const { return num_regs_; }

  /// Execute at one point: `inputs` indexed by input_id, `outputs` by the
  /// position in the original outputs vector.
  void run(const Real* inputs, Real* outputs) const;

 private:
  void compile(const Graph& g, const std::vector<std::int32_t>& outputs,
               const std::vector<std::int32_t>& order);

  Strategy strategy_;
  int num_regs_;
  SpillStats stats_;
  std::vector<MicroOp> ops_;
  int num_spill_slots_ = 0;
  mutable std::vector<Real> spill_;  // reused across run() calls
};

}  // namespace dgr::codegen

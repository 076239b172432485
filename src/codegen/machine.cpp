#include "codegen/machine.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/error.hpp"

namespace dgr::codegen {

namespace {
constexpr std::size_t kNoUse = std::numeric_limits<std::size_t>::max();

bool is_compute(const Node& n) {
  return n.op != Op::kInput && n.op != Op::kConst;
}
}  // namespace

CompiledKernel::CompiledKernel(const Graph& g,
                               const std::vector<std::int32_t>& outputs,
                               Strategy strategy, int num_regs)
    : strategy_(strategy), num_regs_(num_regs) {
  DGR_CHECK_MSG(num_regs >= 4, "register budget too small");
  const auto order = schedule_nodes(g, outputs, strategy);
  stats_.max_live = max_live_temporaries(g, order, outputs);
  compile(g, outputs, order);
}

void CompiledKernel::compile(const Graph& g,
                             const std::vector<std::int32_t>& outputs,
                             const std::vector<std::int32_t>& order) {
  const std::size_t N = g.size();

  // Use lists: positions in `order` where each value is read.
  std::vector<std::vector<std::size_t>> uses(N);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Node& n = g.node(order[i]);
    if (n.a >= 0) uses[n.a].push_back(i);
    if (n.b >= 0) uses[n.b].push_back(i);
  }
  std::vector<std::size_t> use_ptr(N, 0);
  auto next_use = [&](std::int32_t v, std::size_t i) -> std::size_t {
    const auto& u = uses[v];
    std::size_t p = use_ptr[v];
    while (p < u.size() && u[p] <= i) ++p;
    return p < u.size() ? u[p] : kNoUse;
  };

  // Output positions per node (a node may be stored to several outputs).
  std::unordered_map<std::int32_t, std::vector<std::int32_t>> out_of;
  for (std::size_t o = 0; o < outputs.size(); ++o)
    out_of[outputs[o]].push_back(static_cast<std::int32_t>(o));

  std::vector<std::int32_t> reg_holds(num_regs_, -1);
  std::vector<std::int16_t> in_reg(N, -1);
  std::vector<std::int32_t> spill_slot(N, -1);
  std::vector<int> remaining(N, 0);
  for (std::size_t v = 0; v < N; ++v)
    remaining[v] = static_cast<int>(uses[v].size());

  auto free_reg_of = [&](std::int32_t v) {
    if (in_reg[v] >= 0) {
      reg_holds[in_reg[v]] = -1;
      in_reg[v] = -1;
    }
  };

  auto alloc_reg = [&](std::size_t i, std::int32_t excl_a,
                       std::int32_t excl_b) -> std::int16_t {
    for (std::int16_t r = 0; r < num_regs_; ++r)
      if (reg_holds[r] < 0) return r;
    // Evict the register whose value has the furthest next use (Belady).
    std::int16_t victim = -1;
    std::size_t best = 0;
    for (std::int16_t r = 0; r < num_regs_; ++r) {
      const std::int32_t v = reg_holds[r];
      if (v == excl_a || v == excl_b) continue;
      const std::size_t nu = next_use(v, i);
      if (victim < 0 || nu > best || (nu == best && v < reg_holds[victim])) {
        victim = r;
        best = nu;
      }
    }
    DGR_CHECK_MSG(victim >= 0, "register pressure exceeds budget");
    const std::int32_t v = reg_holds[victim];
    const bool needed_later = next_use(v, i) != kNoUse;
    if (needed_later && is_compute(g.node(v)) && spill_slot[v] < 0) {
      spill_slot[v] = num_spill_slots_++;
      ops_.push_back({MicroOp::kStoreSpill, Op::kAdd, victim, 0, 0,
                      spill_slot[v], 0});
      stats_.spill_store_bytes += sizeof(Real);
    }
    reg_holds[victim] = -1;
    in_reg[v] = -1;
    return victim;
  };

  auto ensure_in_reg = [&](std::int32_t v, std::size_t i, std::int32_t excl_a,
                           std::int32_t excl_b) -> std::int16_t {
    if (in_reg[v] >= 0) return in_reg[v];
    const std::int16_t r = alloc_reg(i, excl_a, excl_b);
    const Node& n = g.node(v);
    if (n.op == Op::kInput) {
      ops_.push_back({MicroOp::kLoadInput, Op::kAdd, r, 0, 0, n.input_id, 0});
    } else if (n.op == Op::kConst) {
      ops_.push_back({MicroOp::kLoadConst, Op::kAdd, r, 0, 0, 0, n.value});
    } else {
      DGR_CHECK_MSG(spill_slot[v] >= 0, "temp value lost without spill slot");
      ops_.push_back(
          {MicroOp::kLoadSpill, Op::kAdd, r, 0, 0, spill_slot[v], 0});
      stats_.spill_load_bytes += sizeof(Real);
    }
    reg_holds[r] = v;
    in_reg[v] = r;
    return r;
  };

  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::int32_t id = order[i];
    const Node& n = g.node(id);
    std::int16_t ra = -1, rb = -1;
    if (n.a >= 0) ra = ensure_in_reg(n.a, i, n.a, n.b);
    if (n.b >= 0) rb = ensure_in_reg(n.b, i, n.a, n.b);

    // Consume the operand uses at position i; dead operands release their
    // registers before the destination is allocated (register reuse).
    auto consume = [&](std::int32_t v) {
      if (v < 0) return;
      while (use_ptr[v] < uses[v].size() && uses[v][use_ptr[v]] <= i)
        ++use_ptr[v];
      --remaining[v];
    };
    consume(n.a);
    if (n.b >= 0 && n.b != n.a) consume(n.b);
    auto maybe_free = [&](std::int32_t v) {
      if (v >= 0 && remaining[v] <= 0 && !out_of.count(v)) free_reg_of(v);
    };
    maybe_free(n.a);
    if (n.b != n.a) maybe_free(n.b);

    const std::int16_t rd = alloc_reg(i, n.a >= 0 ? n.a : -1,
                                      n.b >= 0 ? n.b : -1);
    ops_.push_back({MicroOp::kCompute, n.op, rd, ra, rb, 0, 0});
    ++stats_.num_ops;
    reg_holds[rd] = id;
    in_reg[id] = rd;

    if (auto it = out_of.find(id); it != out_of.end()) {
      for (std::int32_t o : it->second)
        ops_.push_back({MicroOp::kStoreOutput, Op::kAdd, rd, 0, 0, o, 0});
      out_of.erase(it);
    }
    if (remaining[id] <= 0) free_reg_of(id);
  }

  // Any output that is a bare input or constant (possible in degenerate
  // parameter choices): store it directly.
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    const std::int32_t id = outputs[o];
    if (!is_compute(g.node(id)) && out_of.count(id)) {
      const std::int16_t r = ensure_in_reg(id, order.size(), -1, -1);
      ops_.push_back({MicroOp::kStoreOutput, Op::kAdd, r, 0, 0,
                      static_cast<std::int32_t>(o), 0});
    }
  }
  stats_.spill_slots = num_spill_slots_;
  spill_.resize(std::max(1, num_spill_slots_));
}

void CompiledKernel::run(const Real* inputs, Real* outputs) const {
  Real regs[256];
  DGR_CHECK(num_regs_ <= 256);
  Real* spill = spill_.data();
  for (const MicroOp& op : ops_) {
    switch (op.kind) {
      case MicroOp::kLoadInput: regs[op.dst] = inputs[op.slot]; break;
      case MicroOp::kLoadConst: regs[op.dst] = op.cval; break;
      case MicroOp::kLoadSpill: regs[op.dst] = spill[op.slot]; break;
      case MicroOp::kStoreSpill: spill[op.slot] = regs[op.dst]; break;
      case MicroOp::kStoreOutput: outputs[op.slot] = regs[op.dst]; break;
      case MicroOp::kCompute:
        switch (op.op) {
          case Op::kAdd: regs[op.dst] = regs[op.a] + regs[op.b]; break;
          case Op::kSub: regs[op.dst] = regs[op.a] - regs[op.b]; break;
          case Op::kMul: regs[op.dst] = regs[op.a] * regs[op.b]; break;
          case Op::kDiv: regs[op.dst] = regs[op.a] / regs[op.b]; break;
          case Op::kNeg: regs[op.dst] = -regs[op.a]; break;
          default: break;
        }
        break;
    }
  }
}

}  // namespace dgr::codegen

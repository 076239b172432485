#!/usr/bin/env bash
# Mechanical vectorization gate for the AVX2 CI leg.
#
#  gate 1: every loop tagged `DGR_HOT_LOOP(name)` in the production
#          source src/exec_space/bssn_sweeps.cpp (the RK4 AXPY loops of
#          sweep_rk4_axpy) must be reported "loop vectorized" by
#          -fopt-info-vec-optimized; on failure the -fopt-info-vec-missed
#          reasons for the offending lines are printed and the script
#          exits nonzero. A tag sits on the line right above its loop.
#  gate 2: the explicit dgr::simd packs of the pack kernels (the RHS in
#          src/bssn/rhs.cpp, Psi4, the constraints) must materialize as
#          256-bit ymm instructions (asm grep). The stencil reductions
#          are hand-vectorized across points — the compiler must not
#          reassociate them (bitwise determinism), so auto-vec reports
#          cannot cover them; the asm is the proof the AVX2 backend is
#          actually engaged.
#
# Usage: tools/check_vectorization.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

CXX=${CXX:-g++}
# -O3 matches the Release build; GCC's -O2 very-cheap vectorizer cost model
# skips runtime-trip-count loops and would miss everything.
FLAGS=(-std=c++20 -O3 -mavx2 -ffp-contract=off -DDGR_SIMD_AVX2
       -DDGR_MARCH="\"-mavx2 -ffp-contract=off\"" -Isrc)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# ---- gate 1: tagged hot loops must auto-vectorize -------------------------
probe=src/exec_space/bssn_sweeps.cpp
name=$(basename "$probe")
"$CXX" "${FLAGS[@]}" -fopt-info-vec-optimized -c "$probe" -o "$tmp/probe.o" \
  2> "$tmp/vec.log"
fail=0
tags=0
while IFS=: read -r tag_line tag; do
  tags=$((tags + 1))
  loop_line=$((tag_line + 1))
  if grep -q "$name:$loop_line:.*loop vectorized" "$tmp/vec.log"; then
    echo "ok: hot loop '$tag' ($name:$loop_line) vectorized"
  else
    echo "FAIL: hot loop '$tag' ($name:$loop_line) NOT vectorized"
    fail=1
  fi
done < <(grep -n '^ *// DGR_HOT_LOOP(' "$probe" |
         awk -F'[:()]' '{print $1":"$3}')
if [ "$tags" -eq 0 ]; then
  echo "FAIL: no DGR_HOT_LOOP tag in $probe"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "--- compiler missed-vectorization report ---"
  "$CXX" "${FLAGS[@]}" -fopt-info-vec-missed -c "$probe" -o "$tmp/probe.o" \
    2>&1 | grep "$name" || true
  exit 1
fi

# ---- gate 2: explicit packs must emit 256-bit ymm code --------------------
for tu in src/bssn/rhs.cpp src/gw/psi4.cpp src/bssn/constraints.cpp; do
  "$CXX" "${FLAGS[@]}" -S "$tu" -o "$tmp/out.s"
  n=$(grep -c '%ymm' "$tmp/out.s" || true)
  if [ "$n" -lt 16 ]; then
    echo "FAIL: $tu emitted only $n ymm references — AVX2 packs not engaged"
    exit 1
  fi
  echo "ok: $tu emits $n ymm references (256-bit AVX2 packs engaged)"
done

echo "vectorization gate passed"

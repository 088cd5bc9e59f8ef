#!/usr/bin/env bash
# Lint, two rules on the distance kernels, the move evaluators and Flt
# (whose rounding-model margins the kernels copy inline):
#
# - Float minima and maxima are taken by compare-select, never through
#   Float.min / Float.max.  Those test the sign bit and NaN, which costs
#   a C call whenever the first comparison fails, and in the dev profile
#   (-opaque) a float passed across a module boundary is boxed.  On the
#   distances these files see (never NaN, never -0) a compare-select
#   returns the same bits.  See ROADMAP.md item 9, "Kernel note", and
#   the [fmin] comment in lib/mgraph/incr_apsp.ml.
# - Rows of floats are [float array], never Float.Array.t: the distance
#   store, the adjacency weights and every pass they feed share one row
#   type, so no copy loop or second copy of a kernel bridges two.
#
# Comments and string and character literals are skipped
# (tools/ocaml_code.awk), so prose may still name them.  Any use in code
# fails the build (`dune build @lint`).
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

files="lib/mgraph/incr_apsp.ml lib/mgraph/flat_adj.ml lib/core/fast_response.ml lib/core/greedy.ml lib/util/flt.ml"

status=0

check_file() {
  awk -v file="$1" "$(cat tools/ocaml_code.awk)"'
    BEGIN {
      call = "Float[.](min|max)([^A-Za-z0-9_\047]|$)"
      floatarray = "Float[.]Array([^A-Za-z0-9_\047]|$)"
    }
    {
      code = ocaml_code($0)
      if (code ~ call) printf "%s:%d: Float.min/Float.max call: %s\n", file, NR, $0
      if (code ~ floatarray) printf "%s:%d: Float.Array use: %s\n", file, NR, $0
    }
  ' "$1"
}

for f in $files; do
  if [ ! -f "$f" ]; then
    echo "check_kernel_floats: missing $f" >&2
    status=1
    continue
  fi
  out="$(check_file "$f")"
  if [ -n "$out" ]; then
    printf '%s\n' "$out"
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "check_kernel_floats: in a kernel file, take minima by a local [@inline] compare-select (see lib/mgraph/incr_apsp.ml) and keep rows as float array" >&2
  exit 1
fi
echo "check_kernel_floats: ok"

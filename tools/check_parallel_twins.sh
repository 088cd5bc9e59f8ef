#!/usr/bin/env bash
# Lint: deprecated API shims may only live inside explicitly fenced
# blocks, and the redesigned Dynamics entry point must stay lean.
#
# 1. The `_parallel` API twins are deprecated in favour of the single
#    `?exec` parameter (lib/util/exec.mli).  New `_parallel` entry
#    points in lib/ may only appear inside a fenced alias block:
#
#      (* BEGIN deprecated <family> aliases *)
#      ...
#      (* END deprecated <family> aliases *)
#
#    Any occurrence in an .mli outside such a block, or any new
#    definition (`let`/`val` whose name ends in `_parallel`) in an .ml
#    outside such a block, fails the build (`dune build @lint`).
#
# 2. `Dynamics.run` takes a `Dynamics.Config.t`: the optional-argument
#    sprawl the Config redesign removed must not grow back.  The
#    unfenced `val run :` declaration in lib/core/dynamics.mli may not
#    mention optional arguments; new knobs belong in `Config.t`.
#
# 3. The `run_legacy` shim (the pre-Config signature, kept for one
#    release after the PR 8 redesign) is deleted and must not return —
#    fenced or not.
#
# 4. lib/ spawns domains in one place, the domain loop of
#    lib/util/exec.ml: every other parallel scan or job pool runs on
#    `Exec.init` / `Exec.for_all`.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

status=0

# Prints offending "file:line:text" occurrences of a pattern in a file,
# ignoring lines between BEGIN/END deprecated-alias marker comments
# (any fenced family, e.g. "_parallel" or "dynamics run").
check_file() {
  local file="$1" pattern="$2"
  awk -v pat="$pattern" -v file="$file" '
    /BEGIN deprecated .* aliases/ { fenced = 1 }
    /END deprecated .* aliases/   { fenced = 0; next }
    !fenced && $0 ~ pat { printf "%s:%d:%s\n", file, NR, $0 }
  ' "$file"
}

# Interface files: no mention of _parallel at all outside a fence
# (values, doc comments steering users to the twins, anything).
while IFS= read -r f; do
  out="$(check_file "$f" '_parallel')"
  if [ -n "$out" ]; then
    printf '%s\n' "$out"
    status=1
  fi
done < <(find lib -name '*.mli' | sort)

# Implementation files: no new definitions outside a fence.  Call
# sites referencing Exec.* combinators or local helpers are fine.
while IFS= read -r f; do
  out="$(check_file "$f" '^[[:space:]]*(let|and)[[:space:]]+[a-z_]*_parallel\>')"
  if [ -n "$out" ]; then
    printf '%s\n' "$out"
    status=1
  fi
done < <(find lib -name '*.ml' | sort)

if [ "$status" -ne 0 ]; then
  echo "check_parallel_twins: _parallel entry points outside the deprecated-alias fences (use ?exec, see lib/util/exec.mli)" >&2
  exit 1
fi

# The unfenced `val run :` block of the Dynamics interface: extract the
# declaration (from `val run :` to the first line ending the signature
# at `outcome`) and reject optional arguments.
run_decl="$(awk '
  /BEGIN deprecated .* aliases/ { fenced = 1 }
  /END deprecated .* aliases/   { fenced = 0; next }
  fenced { next }
  /^val run :/ { grab = 1 }
  grab { print; if (/outcome[[:space:]]*$/) grab = 0 }
' lib/core/dynamics.mli)"
if [ -z "$run_decl" ]; then
  echo "check_parallel_twins: lib/core/dynamics.mli has no unfenced 'val run :'" >&2
  exit 1
fi
if printf '%s\n' "$run_decl" | grep -q '?'; then
  printf '%s\n' "$run_decl"
  echo "check_parallel_twins: Dynamics.run grew optional arguments back — put new knobs in Dynamics.Config.t" >&2
  exit 1
fi

# run_legacy is gone for good: reject any resurrection, even fenced —
# its one-release grace period ended when it was deleted.
legacy="$(grep -rn 'run_legacy' lib bin bench test 2>/dev/null || true)"
if [ -n "$legacy" ]; then
  printf '%s\n' "$legacy"
  echo "check_parallel_twins: Dynamics.run_legacy is deleted — migrate to Dynamics.run with a Dynamics.Config.t (README migration table)" >&2
  exit 1
fi

spawns="$(grep -rn --include='*.ml' 'Domain\.spawn' lib | grep -v '^lib/util/exec\.ml:' || true)"
if [ -n "$spawns" ]; then
  printf '%s\n' "$spawns"
  echo "check_parallel_twins: Domain.spawn outside lib/util/exec.ml — run the work on Exec.init / Exec.for_all" >&2
  exit 1
fi

echo "check_parallel_twins: ok"

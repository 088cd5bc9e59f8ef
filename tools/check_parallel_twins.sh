#!/usr/bin/env bash
# Lint: the deleted API shims must not return, and the redesigned
# Dynamics entry point must stay lean.
#
# 1. The `_parallel` API twins are deleted in favour of the single
#    `?exec` parameter (lib/util/exec.mli).  Any mention of `_parallel`
#    in an .mli under lib/, or any definition (`let`/`and` whose name
#    ends in `_parallel`) in an .ml under lib/, fails the build
#    (`dune build @lint`).
#
# 2. `Dynamics.run` takes a `Dynamics.Config.t`: the optional-argument
#    sprawl the Config redesign removed must not grow back.  The
#    `val run :` declaration in lib/core/dynamics.mli may not mention
#    optional arguments; new knobs belong in `Config.t`.
#
# 3. The `run_legacy` shim (the pre-Config signature) is deleted and
#    must not return.
#
# 4. lib/ spawns domains in one place, the domain loop of
#    lib/util/exec.ml: every other parallel scan or job pool runs on
#    `Exec.init` / `Exec.for_all`.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

status=0

# Prints offending "file:line:text" occurrences of a pattern in a file.
check_file() {
  local file="$1" pattern="$2"
  awk -v pat="$pattern" -v file="$file" '
    $0 ~ pat { printf "%s:%d:%s\n", file, NR, $0 }
  ' "$file"
}

# Interface files: no mention of _parallel at all (values, doc comments
# steering users to the twins, anything).
while IFS= read -r f; do
  out="$(check_file "$f" '_parallel')"
  if [ -n "$out" ]; then
    printf '%s\n' "$out"
    status=1
  fi
done < <(find lib -name '*.mli' | sort)

# Implementation files: no definitions.  Call sites referencing Exec.*
# combinators or local helpers are fine.
while IFS= read -r f; do
  out="$(check_file "$f" '^[[:space:]]*(let|and)[[:space:]]+[a-z_]*_parallel\>')"
  if [ -n "$out" ]; then
    printf '%s\n' "$out"
    status=1
  fi
done < <(find lib -name '*.ml' | sort)

if [ "$status" -ne 0 ]; then
  echo "check_parallel_twins: _parallel entry points in lib/ (use ?exec, see lib/util/exec.mli)" >&2
  exit 1
fi

# The `val run :` block of the Dynamics interface: extract the
# declaration (from `val run :` to the first line ending the signature
# at `outcome`) and reject optional arguments.
run_decl="$(awk '
  /^val run :/ { grab = 1 }
  grab { print; if (/outcome[[:space:]]*$/) grab = 0 }
' lib/core/dynamics.mli)"
if [ -z "$run_decl" ]; then
  echo "check_parallel_twins: lib/core/dynamics.mli has no 'val run :'" >&2
  exit 1
fi
if printf '%s\n' "$run_decl" | grep -q '?'; then
  printf '%s\n' "$run_decl"
  echo "check_parallel_twins: Dynamics.run grew optional arguments back — put new knobs in Dynamics.Config.t" >&2
  exit 1
fi

# run_legacy is gone for good: reject any resurrection.
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

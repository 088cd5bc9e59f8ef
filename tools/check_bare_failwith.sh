#!/usr/bin/env bash
# Lint: trust-boundary code must classify failures through the typed
# Gncg_error module (lib/util/gncg_error.mli), not bare string failures
# or unreachable-state asserts.  Any `failwith` or `assert false` in
# lib/core or lib/metric fails the build (`dune build @lint`).  Use
# Gncg_error.fail/failf results for classified failures, invalid_arg for
# caller contract violations, and Gncg_error.unreachable for states the
# surrounding invariants rule out.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

status=0

check_file() {
  local file="$1"
  awk -v file="$file" '
    /(failwith|assert false)/ { printf "%s:%d:%s\n", file, NR, $0 }
  ' "$file"
}

while IFS= read -r f; do
  out="$(check_file "$f")"
  if [ -n "$out" ]; then
    printf '%s\n' "$out"
    status=1
  fi
done < <(find lib/core lib/metric \( -name '*.ml' -o -name '*.mli' \) | sort)

if [ "$status" -ne 0 ]; then
  echo "check_bare_failwith: bare failwith/assert false in lib/core or lib/metric (use Gncg_error, see lib/util/gncg_error.mli)" >&2
  exit 1
fi
echo "check_bare_failwith: ok"

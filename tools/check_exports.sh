#!/usr/bin/env bash
# Lint: the library exports nothing that only its own module and the
# tests reach.  Every `val` in lib/**/*.mli must be mentioned, by name,
# in some .ml/.mli under lib/, bin/, bench/, benchmark/ or examples/
# other than its own module's two files, unless tools/exports_keep.txt
# names it with a reason (reference oracles, fault-injection hooks,
# test seams, paper formulas awaiting a verdict).
#
# The match is on the bare word in code: comments, string literals and
# character literals are skipped (tools/ocaml_code.awk, shared with
# tools/check_kernel_floats.sh), so prose that names a value (a
# {!Module.value} reference, a note in another module) does not keep it
# exported.  A common name such
# as `create` still passes on any use of the word, so the check is a
# ratchet against new test-only exports, not a proof that an export is
# used: after hiding a value, building the non-test targets lets warning
# 32 (unused value) say whether the module itself still needs it.
#
# One pass builds a (file, word) index of every source file, so the
# check costs one scan, not one grep per value.  Fails the build
# (`dune build @lint`) on an unmentioned value or on a keep-list entry
# that names no `val`.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

keep=tools/exports_keep.txt
if [ ! -f "$keep" ]; then
  echo "check_exports: missing $keep" >&2
  exit 1
fi

dirs=""
for d in lib bin bench benchmark examples; do
  [ -d "$d" ] && dirs="$dirs $d"
done

# "path<TAB>word" for every distinct word of the code of every source
# file (tools/ocaml_code.awk blanks comments and literals).
index="$(find $dirs -path '*/_build' -prune -o \( -name '*.ml' -o -name '*.mli' \) -print \
  | sort | xargs awk "$(cat tools/ocaml_code.awk)"'
    FNR == 1 { depth = 0; instr = 0 }
    {
      code = ocaml_code($0)
      while (match(code, /[A-Za-z_][A-Za-z0-9_\047]*/)) {
        printf "%s\t%s\n", FILENAME, substr(code, RSTART, RLENGTH)
        code = substr(code, RSTART + RLENGTH)
      }
    }
  ' | sort -u)"

# "mli<TAB>dotted name<TAB>line" for every val, with the enclosing
# top-level `module X : sig ... end` prefixed to the name.
vals="$(find lib -name '*.mli' -not -path '*/_build/*' | sort | while read -r f; do
  awk -v file="$f" '
    /^module [A-Z][A-Za-z0-9_]* *: *sig/ { sub(/^module /, ""); sub(/ *:.*/, ""); sub_ = $0; next }
    /^end/ { sub_ = ""; next }
    /^ *val / {
      name = $0; sub(/^ *val +/, "", name); sub(/[ :].*/, "", name)
      printf "%s\t%s%s\t%d\n", file, (sub_ == "" ? "" : sub_ "."), name, FNR
    }
  ' "$f"
done)"

out="$(
  {
    printf '%s\n' "$vals" | sed 's/^/V\t/'
    grep -vE '^[[:space:]]*(#|$)' "$keep" | awk '{ printf "K\t%s\t%s\n", $1, $2 }'
    printf '%s\n' "$index" | sed 's/^/W\t/'
  } | awk -F'\t' '
    function own(mli, path,   base) {
      base = mli; sub(/\.mli$/, "", base)
      return path == mli || path == base ".ml"
    }
    $1 == "V" {
      bare = $3; sub(/.*\./, "", bare)
      n = ++nv; vfile[n] = $2; vname[n] = $3; vline[n] = $4; vbare[n] = bare
      owners[bare] = owners[bare] " " n
      exists[$2 "\t" $3] = 1
      next
    }
    $1 == "K" {
      kept[$2 "\t" $3] = 1
      if (!(($2 "\t" $3) in exists))
        printf "%s: keep-list entry names no val: %s\n", "tools/exports_keep.txt", $2 " " $3
      next
    }
    $1 == "W" && ($3 in owners) {
      k = split(owners[$3], ids, " ")
      for (i = 1; i <= k; i++) if (!own(vfile[ids[i]], $2)) used[ids[i]] = 1
    }
    END {
      for (n = 1; n <= nv; n++)
        if (!(n in used) && !((vfile[n] "\t" vname[n]) in kept))
          printf "%s:%d: val %s is reached only from its own module and test/\n", vfile[n], vline[n], vname[n]
    }
  '
)"

if [ -n "$out" ]; then
  printf '%s\n' "$out"
  echo "check_exports: delete the value, drop it from the .mli, or name it in $keep with a reason" >&2
  exit 1
fi
echo "check_exports: ok ($(printf '%s\n' "$vals" | wc -l) vals)"

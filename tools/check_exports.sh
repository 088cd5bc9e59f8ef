#!/usr/bin/env bash
# Lint: the library exports nothing that only its own module and the
# tests reach.  Every `val` in lib/**/*.mli must have a use in some
# .ml/.mli under lib/, bin/, bench/, benchmark/ or examples/ other than
# its own module's two files, unless tools/exports_keep.txt names it
# with a reason (reference oracles, fault-injection hooks, test seams,
# paper formulas awaiting a verdict).
#
# A use of val v of module M is one of:
#   - M.v, with M written in full (Gncg_util.Flt.lt) or as a sibling of
#     the same library (Flt.lt inside lib/util);
#   - X.v, where the file binds X to M (`module X = Gncg_util.Flt`,
#     `let module X = ... in`);
#   - v written bare in a file that opens M: `open M`, `open! M`,
#     `include M`, `let open M in` or a local open `M.( ... )`.
# A val declared in a submodule (`module Config : sig ... end`) is owned
# by that submodule: Dynamics.Config.make.  A field access `r.v` or
# `r.M.v` is not a use, and neither is a word in a comment or a literal
# (tools/ocaml_code.awk blanks them).  When a name resolves to more
# than one module, two libraries' `Metric` say, through an unqualified
# head or a name the file binds twice, the use counts for each.  A
# module alias declared in an .mli is not followed, so a val reached
# only through one fails the check.
#
# One awk run reads every source file once and resolves the uses at
# the end.  Fails the build (`dune build @lint`) on a val without a
# use, on a keep-list entry that names no `val`, and on one whose val
# has a use, so the list holds only what needs a reason.
#
# Usage: tools/check_exports.sh [TREE [KEEP]], paths from the repo
# root; the defaults are the repo itself and tools/exports_keep.txt.
# A library's name is its dune `(name ...)`, or else its directory's.
# `dune build @lint` also runs it on tools/exports_fixture/, its test.
set -u

tools="$(cd "$(dirname "$0")" && pwd)"
cd "$tools/.."
tree="$(cd "${1:-.}" && pwd)"
keepname="${2:-tools/exports_keep.txt}"
keep="$(cd "$(dirname "$keepname")" && pwd)/$(basename "$keepname")"
if [ ! -f "$keep" ]; then
  echo "check_exports: missing $keepname" >&2
  exit 1
fi
cd "$tree"

libs=""
for d in lib/*/; do
  d="${d%/}"
  name="$(sed -n 's/.*(name \([A-Za-z0-9_]*\)).*/\1/p' "$d/dune" 2>/dev/null | head -n 1)"
  libs="$libs ${d#lib/}=${name:-${d#lib/}}"
done

dirs=""
for d in lib bin bench benchmark examples; do
  [ -d "$d" ] && dirs="$dirs $d"
done

files="$(find $dirs -path '*/_build' -prune -o \( -name '*.ml' -o -name '*.mli' \) -print | sort)"

# One awk run over every file ($files unquoted: no source path has a space).
out="$(awk -v libs="$libs" -v keep="$keep" -v keepname="$keepname" "$(cat "$tools/ocaml_code.awk")"'
    function cap(s) { return toupper(substr(s, 1, 1)) substr(s, 2) }
    BEGIN {
      n = split(libs, l, " ")
      for (i = 1; i <= n; i++) {
        split(l[i], kv, "="); libname[kv[1]] = cap(kv[2]); islib[cap(kv[2])] = 1
      }
    }
    FNR == 1 {
      depth = 0; instr = 0; nf++; flib[nf] = ""; top = ""; sp = 0
      k = split(FILENAME, parts, "/")
      if (parts[1] == "lib" && k == 3) {
        m = cap(parts[3]); sub(/\.mli?$/, "", m)
        flib[nf] = libname[parts[2]]; top = flib[nf] "." m
        if (!(top in ismod)) { ismod[top] = 1; byname[m] = byname[m] " " top }
        if (FILENAME !~ /\.mli$/) top = ""
      }
    }
    {
      code = ocaml_code($0); nl[nf] = FNR; src[nf, FNR] = code
      if (top == "") next
      # The mli of a library module: its vals and its `sig ... end`
      # submodules.
      if (code ~ /^ *module +[A-Z][A-Za-z0-9_]* *: *sig/) {
        s = code; sub(/^ *module +/, "", s); sub(/[ :].*/, "", s)
        stack[++sp] = s; ismod[owner()] = 1
      } else if (sp > 0 && code ~ /^ *end/) sp--
      else if (match(code, /^ *val +[a-z_][A-Za-z0-9_\047]*/)) {
        v = substr(code, RSTART, RLENGTH); sub(/^ *val +/, "", v)
        o = owner(); nv++
        vidx[o "\t" v] = nv; vfile[nv] = FILENAME; vline[nv] = FNR
        vname[nv] = (o == top ? "" : substr(o, length(top) + 2) ".") v
      }
    }
    function owner(   o, i) { o = top; for (i = 1; i <= sp; i++) o = o "." stack[i]; return o }
    # The modules that a head name x denotes in file f: an alias of the
    # file, a library, a module of the library of f, a submodule of a
    # module the file opens, or else every library module of that name.
    function head(f, x,   r, i, k, ps) {
      if (x in alias) return alias[x]
      if (x in islib) return " " x
      if (flib[f] != "" && ((flib[f] "." x) in ismod)) return " " flib[f] "." x
      r = ""
      k = split(opened, ps, " ")
      for (i = 1; i <= k; i++) if ((ps[i] "." x) in ismod) r = r " " ps[i] "." x
      return r != "" ? r : byname[x]
    }
    # The modules that a dotted module path denotes in file f.
    function resolve(f, path,   c, k, i, j, m, cs, r, d) {
      k = split(path, c, "."); r = head(f, c[1])
      for (i = 2; i <= k; i++) {
        d = ""; m = split(r, cs, " ")
        for (j = 1; j <= m; j++) if ((cs[j] "." c[i]) in ismod) d = d " " cs[j] "." c[i]
        r = d
      }
      return r
    }
    # A module cannot name itself, so a use that resolves is one from
    # outside the module that declares the val.
    function use(mods, v,   m, j, cs) {
      m = split(mods, cs, " ")
      for (j = 1; j <= m; j++) if ((cs[j] "\t" v) in vidx) used[vidx[cs[j] "\t" v]] = 1
    }
    # Walks the tokens of file f: dotted chains of identifiers, where a
    # chain that ends in `.(` is a local open.  Pass 1 binds the aliases
    # of the file and collects its opens; pass 2 counts its uses.
    function walk(f, pass,   ln, code, rest, pre, last, tok, prev, pend, mpath, v, lo, i, k, c) {
      prev = ""; pend = ""
      for (ln = 1; ln <= nl[f]; ln++) {
        code = src[f, ln]; last = " "
        while (match(code, /[A-Za-z_][A-Za-z0-9_\047]*(\.[A-Za-z_][A-Za-z0-9_\047]*)*(\.\()?/)) {
          tok = substr(code, RSTART, RLENGTH)
          pre = RSTART > 1 ? substr(code, RSTART - 1, 1) : last
          rest = substr(code, RSTART + RLENGTH); code = rest; last = substr(tok, length(tok))
          # A field access (r.v, r.M.v, (e).v), a label or a type variable.
          if (pre ~ /[.~?#\047]/ || tok ~ /^[a-z_][A-Za-z0-9_\047]*\./) { prev = tok; pend = ""; continue }
          lo = (tok ~ /\.\($/); sub(/\.\($/, "", tok)
          k = split(tok, c, "."); mpath = ""; v = ""
          for (i = 1; i <= k && v == ""; i++)
            if (c[i] ~ /^[A-Z]/) mpath = mpath (i > 1 ? "." : "") c[i]
            else v = c[i]
          if (pass == 1) {
            if (pend != "" && mpath != "" && v == "" && !lo) alias[pend] = alias[pend] resolve(f, mpath)
            pend = ""
            if (prev == "module" && k == 1 && mpath != "" && rest ~ /^ *=/) pend = tok
            if (mpath != "" && v == "" && (lo || prev == "open" || prev == "include"))
              opened = opened resolve(f, mpath)
          } else if (mpath != "" && v != "") use(resolve(f, mpath), v)
          else if (mpath == "" && opened != "") use(opened, v)
          prev = tok
        }
      }
    }
    END {
      for (f = 1; f <= nf; f++) {
        for (x in alias) delete alias[x]
        opened = ""
        walk(f, 1); walk(f, 2)
      }
      for (n = 1; n <= nv; n++) vkey[vfile[n] "\t" vname[n]] = n
      while ((getline line < keep) > 0) {
        if (line ~ /^[ \t]*(#|$)/) continue
        split(line, kv, " "); key = kv[1] "\t" kv[2]
        if (!(key in vkey))
          printf "%s: keep-list entry names no val: %s %s\n", keepname, kv[1], kv[2]
        else {
          n = vkey[key]; kept[n] = 1
          if (n in used)
            printf "%s: keep-list entry has a use outside its module and test/: %s %s\n", keepname, kv[1], kv[2]
        }
      }
      for (n = 1; n <= nv; n++)
        if (!(n in used) && !(n in kept))
          printf "%s:%d: val %s has no use outside its own module and test/\n", vfile[n], vline[n], vname[n]
      printf "%d\n", nv
    }
  ' $files)"

count="$(printf '%s\n' "$out" | tail -n 1)"
out="$(printf '%s\n' "$out" | sed '$d')"
if [ -n "$out" ]; then
  printf '%s\n' "$out"
  echo "check_exports: delete the value, drop it from the .mli, or name it in the keep list with a reason" >&2
  exit 1
fi
echo "check_exports: ok ($count vals)"

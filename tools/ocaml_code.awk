# Shared by the lint scripts that read OCaml source as code: the code of
# one line, with comments, string literals and character literals
# blanked to a space.  Comments nest and, like strings, may span lines:
# the state is kept in [depth] and [instr], which a caller resets at the
# first line of each file.  A string inside a comment is not lexed (no
# source file here puts a comment delimiter in one).  A quote starts a
# character literal when it closes two characters on ('x') or follows a
# backslash ('\n', '\''); otherwise it is part of a word (x') or a type
# variable ('a).
function ocaml_code(line,    code, i, len, c, c2, j) {
  code = ""; i = 1; len = length(line)
  while (i <= len) {
    c = substr(line, i, 1); c2 = substr(line, i, 2)
    if (instr) {
      if (c == "\\") { i += 2; continue }
      if (c == "\"") instr = 0
      i++; continue
    }
    if (c2 == "(*") { depth++; i += 2; continue }
    if (depth > 0 && c2 == "*)") { depth--; i += 2; continue }
    if (depth > 0) { i++; continue }
    if (c == "\"") { instr = 1; code = code " "; i++; continue }
    if (c == "\047") {
      if (substr(line, i + 2, 1) == "\047") { code = code " "; i += 3; continue }
      if (substr(line, i + 1, 1) == "\\") {
        j = index(substr(line, i + 3), "\047")
        if (j > 0) { code = code " "; i += j + 3; continue }
      }
    }
    code = code c; i++
  }
  return code
}

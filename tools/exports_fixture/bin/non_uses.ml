(* only_comment is named here, and Alpha.Geo.only_comment too. *)
let e = Other.only_other
let f = "Alpha.Geo.only_comment"
let g r = r.Alpha.Geo.Sub.shallow

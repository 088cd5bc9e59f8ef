open Alpha.Geo

let c = opened + Alpha.Geo.kept_but_used

(* Field accesses, even in a file that opens Geo. *)
let g r = r.only_field + (Fun.id r).only_field

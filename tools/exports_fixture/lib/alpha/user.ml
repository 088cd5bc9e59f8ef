(* A sibling in the same library names Geo without the library. *)
let x = Geo.qualified + Geo.Sub.deep

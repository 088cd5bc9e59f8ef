(* The implicit description a host was generated from — the tree or the
   point set — carried alongside the tabulated Metric.t. *)

type t =
  | Tree of Tree_metric.tree
  | Points of { points : Euclidean.points; norm : Euclidean.norm }

let tree tr = Tree tr

let points ?(norm = Euclidean.L2) pts =
  if Array.length pts = 0 then invalid_arg "Geometry.points: empty point set";
  Points { points = pts; norm }

let n = function
  | Tree tr -> Tree_metric.size tr
  | Points { points; _ } -> Array.length points

let to_metric = function
  | Tree tr -> Tree_metric.metric tr
  | Points { points; norm } -> Euclidean.metric norm points

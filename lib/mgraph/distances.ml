type t = Incr_apsp.t

let dense = Incr_apsp.of_graph
let dist_sum = Incr_apsp.dist_sum

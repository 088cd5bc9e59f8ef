(* No alias or library names this Metric: the use counts for both. *)
let h = Metric.shared

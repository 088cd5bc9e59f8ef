module G = Alpha.Geo
module M = Beta.Metric

let a = G.aliased + M.beta_value

(* Beta's Metric has no gamma_value: this use is not Gamma's. *)
let b = Beta.Metric.gamma_value

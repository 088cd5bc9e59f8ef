type t = { metric : Gncg_metric.Metric.t; alpha : float }

let check_alpha alpha =
  if alpha > 0.0 && Float.is_finite alpha then Ok alpha
  else Error "alpha must be positive and finite"

let check_n n = if n >= 1 then Ok n else Error "n must be positive"

let make ?geometry ~alpha metric =
  (match check_alpha alpha with Ok _ -> () | Error m -> invalid_arg ("Host.make: " ^ m));
  (match geometry with
  | Some g when Gncg_metric.Geometry.n g <> Gncg_metric.Metric.n metric ->
    invalid_arg "Host.make: geometry/metric size mismatch"
  | _ -> ());
  { metric; alpha }

let metric t = t.metric

let alpha t = t.alpha

let n t = Gncg_metric.Metric.n t.metric

let weight t u v = Gncg_metric.Metric.weight t.metric u v

let weight_row t u = Gncg_metric.Metric.row t.metric u

module Gncg_error = Gncg_util.Gncg_error

let validate ?tol ?require_metric t =
  let ( let* ) = Result.bind in
  let* () =
    if Float.is_finite t.alpha && t.alpha > 0.0 then Ok ()
    else
      Gncg_error.failf ~context:"Host.validate"
        (if Float.is_nan t.alpha || t.alpha = Float.infinity then Gncg_error.Not_finite
         else Gncg_error.Negative)
        "alpha %g must be positive and finite" t.alpha
  in
  Gncg_metric.Metric.validate ?tol ?require_metric t.metric

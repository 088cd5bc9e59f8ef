module Wgraph = Gncg_graph.Wgraph

let graph host s =
  let g = Wgraph.create (Strategy.n s) in
  List.iter
    (fun (u, v) ->
      let w = Host.weight host u v in
      if Float.is_finite w then Wgraph.add_edge g u v w)
    (Strategy.owned_edges s);
  g

module Gncg_error = Gncg_util.Gncg_error

let validate ?(require_connected = false) host s =
  let ( let* ) = Result.bind in
  let ctx = "Network.validate" in
  let err ?where kind msg = Gncg_error.fail ?where ~context:ctx kind msg in
  let n = Host.n host in
  let* () =
    if Strategy.n s = n then Ok ()
    else
      Gncg_error.failf ~context:ctx Gncg_error.Inconsistent
        "profile has %d agents but host has %d" (Strategy.n s) n
  in
  let* () =
    List.fold_left
      (fun acc (u, v) ->
        let* () = acc in
        let where = Gncg_error.Pair (u, v) in
        if u < 0 || u >= n || v < 0 || v >= n then
          err ~where Gncg_error.Bounds "owned edge endpoint out of range"
        else if u = v then err ~where Gncg_error.Inconsistent "self-purchase"
        else if not (Strategy.owns s u v) then
          err ~where Gncg_error.Inconsistent
            "owned_edges lists a pair the ownership view denies"
        else if Float.is_nan (Host.weight host u v) then
          err ~where Gncg_error.Not_finite "purchase of a NaN-weight pair"
        else Ok ())
      (Ok ()) (Strategy.owned_edges s)
  in
  if
    require_connected && n > 0
    && not (Gncg_graph.Connectivity.is_connected (graph host s))
  then err Gncg_error.Disconnected "built network does not span all agents"
  else Ok ()

let diameter host s = Gncg_graph.Dijkstra.diameter (graph host s)

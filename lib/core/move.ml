module ISet = Strategy.ISet

type t = Add of int | Delete of int | Swap of int * int

let apply s ~agent = function
  | Add v ->
    if Strategy.owns s agent v then invalid_arg "Move.apply: already owned";
    Strategy.buy s agent v
  | Delete v ->
    if not (Strategy.owns s agent v) then invalid_arg "Move.apply: not owned";
    Strategy.sell s agent v
  | Swap (old_t, new_t) ->
    if not (Strategy.owns s agent old_t) then invalid_arg "Move.apply: swap of unowned edge";
    if Strategy.owns s agent new_t then invalid_arg "Move.apply: swap onto owned edge";
    if old_t = new_t then invalid_arg "Move.apply: trivial swap";
    Strategy.buy (Strategy.sell s agent old_t) agent new_t

let addable host s ~agent v =
  v <> agent
  && (not (Strategy.edge_in_network s agent v))
  && Float.is_finite (Host.weight host agent v)

let candidates ?(kinds = [ `Add; `Delete; `Swap ]) host s ~agent =
  let n = Strategy.n s in
  let owned = Strategy.strategy s agent in
  let addable = List.filter (addable host s ~agent) (List.init n (fun v -> v)) in
  let adds = if List.mem `Add kinds then List.map (fun v -> Add v) addable else [] in
  let deletes =
    if List.mem `Delete kinds then List.map (fun v -> Delete v) (ISet.elements owned)
    else []
  in
  let swaps =
    if List.mem `Swap kinds then
      List.concat_map
        (fun old_t -> List.map (fun new_t -> Swap (old_t, new_t)) addable)
        (ISet.elements owned)
    else []
  in
  adds @ deletes @ swaps

let pp fmt = function
  | Add v -> Format.fprintf fmt "add->%d" v
  | Delete v -> Format.fprintf fmt "del->%d" v
  | Swap (a, b) -> Format.fprintf fmt "swap %d=>%d" a b

module Incr_apsp = Gncg_graph.Incr_apsp
module Changed_rows = Gncg_graph.Changed_rows
module Flt = Gncg_util.Flt
module Metric = Gncg_obs.Metric

(* Layer-2 probes: the moves applied and the size of the change reports
   flowing to the dynamics loop above. *)
let c_moves_applied = Metric.Counter.make "net_state.moves_applied"
let h_report_rows = Metric.Histogram.make "net_state.change_report_rows"

type changes = {
  rows : Changed_rows.t;
  pairs : (int * int) list;
  full : bool;
}

type scratch = {
  mutable targets : int array;
  mutable weights : float array;
  mutable sums : float array;
  mutable margins : float array;
  mutable known : bool array;
  mutable loose : int array;
  mutable del_rows : float array array;
  mutable del_for : int array;
  mutable del_sums : float array;
  mutable near_best : float array;
  mutable near_arg : int array;
  mutable near_second : float array;
  mutable floor_rows : float array array;
  mutable floor_for : int array;
  mutable floor_sums : float array;
  mutable adjacent : bool array;
}

type t = {
  host : Host.t;
  mutable profile : Strategy.t;
  dist : Incr_apsp.t;           (* tracks the built network G(s) *)
  mutable pending_rows : Changed_rows.t;  (* rows changed since last drain *)
  mutable pending_pairs : (int * int) list; (* strategy pairs modified since last drain *)
  mutable pending_full : bool;  (* the sentinel repaired the store: everything dirty *)
  scratch : scratch;            (* the move evaluator's workspace *)
}

let create ?require_mutable:_ host profile =
  if Strategy.n profile <> Host.n host then
    invalid_arg "Net_state.create: profile/host size mismatch";
  {
    host;
    profile;
    dist = Incr_apsp.of_graph (Network.graph host profile);
    pending_rows = Changed_rows.create (Host.n host);
    pending_pairs = [];
    pending_full = false;
    scratch =
      {
        targets = [||];
        weights = [||];
        sums = [||];
        margins = [||];
        known = [||];
        loose = [||];
        del_rows = [||];
        del_for = [||];
        del_sums = [||];
        near_best = [||];
        near_arg = [||];
        near_second = [||];
        floor_rows = [||];
        floor_for = [||];
        floor_sums = [||];
        adjacent = [||];
      };
  }

let host t = t.host

let profile t = t.profile

let store t = t.dist

let scratch t = t.scratch

let agent_cost t u = Cost.agent_edge_cost t.host t.profile u +. Incr_apsp.dist_sum t.dist u

(* --- change bookkeeping --- *)

let record_rows t changed = Changed_rows.union_into ~dst:t.pending_rows changed

let record_pair t a b =
  (* The pair's strategy entry changed: both endpoints' ownership view of
     the edge (edge_survives_sale etc.) may have flipped even when the
     network did not. *)
  t.pending_pairs <- (a, b) :: t.pending_pairs

let drain_changes t =
  let rows = t.pending_rows and pairs = t.pending_pairs and full = t.pending_full in
  Metric.Histogram.observe h_report_rows (float_of_int (Changed_rows.cardinal rows));
  t.pending_rows <- Changed_rows.create (Host.n t.host);
  t.pending_pairs <- [];
  t.pending_full <- false;
  { rows; pairs; full }

(* Network-level edge deltas.  An edge (a,b) is in the network iff either
   side owns it; finite host weight is required, matching Network.graph.
   [apply_move] adds only edges neither side owned, so none is present. *)
let net_add t a b =
  let w = Host.weight t.host a b in
  if Float.is_finite w then record_rows t (Incr_apsp.add_edge t.dist a b w)

let net_remove t a b = record_rows t (Incr_apsp.remove_edge t.dist a b)

let apply_move t ~agent mv =
  Metric.Counter.incr c_moves_applied;
  let s = t.profile in
  let s' = Move.apply s ~agent mv in
  (match mv with
  | Move.Add v ->
    record_pair t agent v;
    if not (Strategy.edge_in_network s agent v) then net_add t agent v
  | Move.Delete v ->
    record_pair t agent v;
    (* The built edge persists iff the other side also bought it. *)
    if not (Strategy.owns s v agent) then net_remove t agent v
  | Move.Swap (old_t, new_t) ->
    record_pair t agent old_t;
    record_pair t agent new_t;
    if not (Strategy.owns s old_t agent) then net_remove t agent old_t;
    if not (Strategy.edge_in_network s agent new_t) then net_add t agent new_t);
  t.profile <- s';
  s'

(* --- drift sentinel --- *)

let selfcheck_now t =
  let clean = Incr_apsp.selfcheck_now t.dist in
  (* On a repair every row upstream is suspect. *)
  if not clean then t.pending_full <- true;
  clean

let check_consistent t =
  let reference = Gncg_graph.Dijkstra.apsp (Network.graph t.host t.profile) in
  let n = Strategy.n t.profile in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if not (Flt.stored_eq n (Incr_apsp.distance t.dist u v) reference.(u).(v)) then ok := false
    done
  done;
  !ok

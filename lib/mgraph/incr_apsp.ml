(* One [float array] per source row, preallocated snapshot/scratch
   rows, and explicit change tracking: every update reports the set of
   source rows whose distances changed, so the layers above can
   invalidate per-agent state selectively. *)

module Metric = Gncg_obs.Metric

(* Layer-1 probes: one flag read + branch each when profiling is off. *)
let c_insertions = Metric.Counter.make "incr_apsp.insertions"
let c_rows_relaxed = Metric.Counter.make "incr_apsp.rows_relaxed"
let c_rows_changed = Metric.Counter.make "incr_apsp.rows_changed"
let c_deletions = Metric.Counter.make "incr_apsp.deletions"
let c_deletion_rows_recomputed = Metric.Counter.make "incr_apsp.deletion_rows_recomputed"
let c_whatif_sssp = Metric.Counter.make "incr_apsp.whatif_sssp"
let c_settled_vertices = Metric.Counter.make "incr_apsp.settled_vertices"
let c_full_scans = Metric.Counter.make "incr_apsp.full_scans"
let c_add_kernels = Metric.Counter.make "incr_apsp.add_kernels"
let c_savings_scans = Metric.Counter.make "incr_apsp.savings_scans"
let c_selfcheck_probes = Metric.Counter.make "incr_apsp.selfcheck_probes"
let c_selfcheck_mismatches = Metric.Counter.make "incr_apsp.selfcheck_mismatches"
let c_selfcheck_repairs = Metric.Counter.make "incr_apsp.selfcheck_repairs"

type t = {
  adj : Flat_adj.t;           (* the tracked edge set: every pass runs on it *)
  n : int;
  d : float array array;      (* d.(u).(v): the distance from u to v *)
  snap_u : float array;       (* row snapshots for the insertion update *)
  snap_v : float array;
  mutable scratch : float array;  (* reusable row for what-if / recompute passes;
                                     a settled deletion row swaps with it *)
  (* Suspect sets: sus.(s).(0 .. sus_len.(s)-1), ascending, holds every
     vertex of row s that may fail the settle's local test on the current
     adjacency; sus_len.(s) = -1 when nothing is known.  See "Suspect
     sets" below. *)
  sus : int array array;
  sus_len : int array;
  fails : int array;          (* a full scan's failing vertices *)
  cands : int array;          (* a row's suspects plus the edited edge's u and v *)
  lowered : int array;        (* the entries an insertion lowered in one row: n per route *)
  (* Drift sentinel: every [selfcheck_every] updates (0 = off), cross-check
     the matrix and self-heal by rebuilding on a mismatch. *)
  mutable selfcheck_every : int;
  mutable selfcheck_countdown : int;
  mutable selfcheck_cursor : int;
}

(* Process-wide default cadence applied to newly created engines — the
   hook [--selfcheck N] reaches every internally constructed instance
   through (mirrors Exec.set_default_domains). *)
let default_selfcheck = ref 0

let set_default_selfcheck n = default_selfcheck := max 0 n

(* --- suspect sets ------------------------------------------------------ *)

(* A settle tests only the vertices its row's suspect set names, plus the
   endpoints of the edit it runs on; every other vertex passes the local
   test of [Flat_adj.settle_into], because it passed when the set was
   last written and neither its value nor its edges have changed since.
   The sets are kept by three rules:

   - a full scan (a what-if on a row with no set) records the failing
     vertices of the live row on the unedited adjacency;
   - an insertion of (u,v,w) gives a row it changed the failing
     vertices among its old suspects, u, v, the entries it lowered and
     their neighbours ([Flat_adj.insertion_failing_into]): every other
     vertex kept its value, its edges and its neighbours' values.  It
     adds u (or v) to every other row's set when the new edge offers it
     less: only u and v gained an edge, and a gained edge can add a
     predecessor but take none away;
   - a deletion keeps the sets of the rows its tolerance test passes
     over: a lost edge offers nothing, and a vertex loses its only
     strict exact predecessor over it only when the edge is tight, which
     that test selects.  A selected row is settled from its suspects
     plus u and v, and gets as its set the vertices that fail after the
     settle ([Flat_adj.settled_failing_into]).

   A set that would outgrow [suspect_cap], a rebuild and an injected
   cell error leave the row with no set.  The sets choose only which
   vertices step 1 tests, never what a settle returns: every row and
   count is the one a full scan gives. *)
let suspect_cap = 8

(* Adds [y] to row [x]'s set, if the row has one. *)
let add_suspect t x y =
  let len = Array.unsafe_get t.sus_len x in
  if len >= 0 && y <> x then begin
    let a = Array.unsafe_get t.sus x in
    let i = ref 0 in
    while !i < len && Array.unsafe_get a !i < y do
      incr i
    done;
    if !i = len || Array.unsafe_get a !i <> y then
      if len = suspect_cap then Array.unsafe_set t.sus_len x (-1)
      else begin
        Array.blit a !i a (!i + 1) (len - !i);
        Array.unsafe_set a !i y;
        Array.unsafe_set t.sus_len x (len + 1)
      end
  end

(* The full scan of row [s], held in [row], on the current adjacency: the
   failing vertices land in [t.fails] and, when they fit and the row is
   one a settle would test ([row.(s) = 0]), become the row's set.
   Returns their count. *)
let scan_row t s (row : float array) =
  Metric.Counter.incr c_full_scans;
  let k = Flat_adj.failing_into t.adj s row t.fails in
  if k <= suspect_cap && Array.unsafe_get row s = 0.0 then begin
    Array.blit t.fails 0 (Array.unsafe_get t.sus s) 0 k;
    Array.unsafe_set t.sus_len s k
  end;
  k

let rebuild t =
  for s = 0 to t.n - 1 do
    Flat_adj.sssp_into t.adj s t.d.(s)
  done;
  Array.fill t.sus_len 0 t.n (-1)

let of_graph g =
  let n = Wgraph.n g in
  let t =
    {
      adj = Flat_adj.of_wgraph g;
      n;
      d = Array.init n (fun _ -> Array.make n Float.infinity);
      snap_u = Array.make n Float.infinity;
      snap_v = Array.make n Float.infinity;
      scratch = Array.make n Float.infinity;
      sus = Array.init n (fun _ -> Array.make suspect_cap 0);
      sus_len = Array.make n (-1);
      fails = Array.make n 0;
      lowered = Array.make (2 * n) 0;
      cands = Array.make (suspect_cap + 2) 0;
      selfcheck_every = !default_selfcheck;
      selfcheck_countdown = (if !default_selfcheck > 0 then !default_selfcheck else 0);
      selfcheck_cursor = 0;
    }
  in
  rebuild t;
  t

let graph t = Flat_adj.to_wgraph t.adj

let mark_neighbours t u marks b = Flat_adj.mark_neighbours t.adj u marks b

let n t = t.n

let check t u name =
  if u < 0 || u >= t.n then
    invalid_arg (Printf.sprintf "Incr_apsp.%s: vertex %d out of range" name u)

let distance t u v =
  check t u "distance";
  check t v "distance";
  t.d.(u).(v)

let matrix t = Array.map Array.copy t.d

let suspects t s =
  check t s "suspects";
  let k = t.sus_len.(s) in
  if k < 0 then None else Some (Array.to_list (Array.sub t.sus.(s) 0 k))

(* --- streaming row kernels (allocation-free, Kahan, inf-propagating) --- *)

(* Compare-select minimum for the distance kernels.  Distances are never
   NaN (sums of non-negative weights, or +inf when unreachable; no kernel
   subtracts two of them) and never -0 (every zero is a source's own +0),
   so on every input these kernels see it returns the bits [Float.min]
   would, without [Float.min]'s sign-bit test, a C call whenever its
   first comparison fails.  Defined here and not shared: the dev profile
   compiles with -opaque, so a helper in another module would be an
   out-of-line call boxing both floats. *)
let[@inline] fmin (a : float) b = if b < a then b else a

let dist_sum t u =
  check t u "dist_sum";
  let row = Array.unsafe_get t.d u in
  let s = ref 0.0 and c = ref 0.0 in
  let any_inf = ref false in
  for x = 0 to t.n - 1 do
    let d = Array.unsafe_get row x in
    if d = Float.infinity then any_inf := true
    else begin
      let y = d -. !c in
      let tt = !s +. y in
      c := tt -. !s -. y;
      s := tt
    end
  done;
  if !any_inf then Float.infinity else !s

(* Σ_x min(d(u,x), w + d(v,x)) — the mover's distance sum after buying
   edge (u,v): any shortest path through the new edge starts with it. *)
let dist_sum_with_edge t u v w =
  check t u "dist_sum_with_edge";
  check t v "dist_sum_with_edge";
  Metric.Counter.incr c_add_kernels;
  let du = Array.unsafe_get t.d u and dv = Array.unsafe_get t.d v in
  let s = ref 0.0 and c = ref 0.0 in
  let any_inf = ref false in
  for x = 0 to t.n - 1 do
    let m = fmin (Array.unsafe_get du x) (w +. Array.unsafe_get dv x) in
    if m = Float.infinity then any_inf := true
    else begin
      let y = m -. !c in
      let tt = !s +. y in
      c := tt -. !s -. y;
      s := tt
    end
  done;
  if !any_inf then Float.infinity else !s

(* Integer compares only: the distance and the weight are read and
   compared unboxed here, so the evaluator's target loop reads no float
   across a module boundary. *)
let loose_targets t u targets weights k idx =
  check t u "loose_targets";
  if k < 0 || k > Array.length targets || k > Array.length weights || k > Array.length idx
  then invalid_arg "Incr_apsp.loose_targets: arrays shorter than k";
  let du = Array.unsafe_get t.d u in
  let kl = ref 0 in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get targets i in
    check t v "loose_targets";
    if Array.unsafe_get du v > Array.unsafe_get weights i then begin
      Array.unsafe_set idx !kl i;
      incr kl
    end
  done;
  !kl

let min_sum_against t r v w =
  check t v "min_sum_against";
  Metric.Counter.incr c_add_kernels;
  if Array.length r < t.n then invalid_arg "Incr_apsp.min_sum_against: row too short";
  (* Σ_x min(r.(x), w + d(v,x)) — insertion relaxation of a caller-held
     row (e.g. a deletion what-if) against a live matrix row. *)
  let dv = Array.unsafe_get t.d v in
  let s = ref 0.0 and c = ref 0.0 in
  let any_inf = ref false in
  for x = 0 to t.n - 1 do
    let m = fmin (Array.unsafe_get r x) (w +. Array.unsafe_get dv x) in
    if m = Float.infinity then any_inf := true
    else begin
      let y = m -. !c in
      let tt = !s +. y in
      c := tt -. !s -. y;
      s := tt
    end
  done;
  if !any_inf then Float.infinity else !s

(* --- savings scans ------------------------------------------------------- *)

(* Σ_x max(0, r.(x) − (w + dv.(x))): what an edge of weight w to the
   owner of [dv] saves on row [r].  One plain accumulator that adds only
   where the edge offers less, so no compensation chain runs and, on the
   rows the evaluator scans, few entries add at all.  A +inf entry of [r]
   facing a finite offer makes the result +inf; where both are +inf the
   difference is NaN and adds nothing. *)
let[@inline] savings (r : float array) (dv : float array) (w : float) n =
  let s = ref 0.0 in
  for x = 0 to n - 1 do
    let gap = Array.unsafe_get r x -. (w +. Array.unsafe_get dv x) in
    if gap > 0.0 then s := !s +. gap
  done;
  !s

let savings_into t u targets weights idx k out =
  check t u "savings_into";
  if k < 0 || k > Array.length idx then invalid_arg "Incr_apsp.savings_into: idx shorter than k";
  let len = min (Array.length targets) (min (Array.length weights) (Array.length out)) in
  for i = 0 to k - 1 do
    let p = Array.unsafe_get idx i in
    if p < 0 || p >= len then invalid_arg "Incr_apsp.savings_into: position out of range";
    check t (Array.unsafe_get targets p) "savings_into"
  done;
  Metric.Counter.add c_savings_scans k;
  let du = Array.unsafe_get t.d u in
  for i = 0 to k - 1 do
    let p = Array.unsafe_get idx i in
    Array.unsafe_set out p
      (savings du
         (Array.unsafe_get t.d (Array.unsafe_get targets p))
         (Array.unsafe_get weights p) t.n)
  done

let savings_against t r v w =
  check t v "savings_against";
  if Array.length r < t.n then invalid_arg "Incr_apsp.savings_against: row too short";
  Metric.Counter.incr c_savings_scans;
  savings r (Array.unsafe_get t.d v) w t.n

let neighbour_bounds t u best arg second = Flat_adj.nearest_two_into t.adj t.d u best arg second

(* --- whole-matrix totals ------------------------------------------------ *)

let total t =
  (* One Kahan chain over the rows in order; any infinite entry
     (disconnected pair) makes the total infinite without reaching the
     compensation. *)
  let s = ref 0.0 and c = ref 0.0 in
  let any_inf = ref false in
  for u = 0 to t.n - 1 do
    let row = Array.unsafe_get t.d u in
    for v = 0 to t.n - 1 do
      let x = Array.unsafe_get row v in
      if x = Float.infinity then any_inf := true
      else begin
        let y = x -. !c in
        let tt = !s +. y in
        c := tt -. !s -. y;
        s := tt
      end
    done
  done;
  if !any_inf then Float.infinity else !s

(* [total] of the matrix [add_edge] would leave, without writing it: the
   same three-routing minimum per entry, summed in [total]'s order. *)
let total_with_edge_added t u v w =
  check t u "total_with_edge_added";
  check t v "total_with_edge_added";
  let n = t.n in
  if w >= t.d.(u).(v) then total t
  else begin
    let du = Array.unsafe_get t.d u and dv = Array.unsafe_get t.d v in
    let s = ref 0.0 and c = ref 0.0 in
    let any_inf = ref false in
    for x = 0 to n - 1 do
      let row = Array.unsafe_get t.d x in
      let dxu = Array.unsafe_get du x and dxv = Array.unsafe_get dv x in
      for y = 0 to n - 1 do
        let via_uv = dxu +. w +. Array.unsafe_get dv y in
        let via_vu = dxv +. w +. Array.unsafe_get du y in
        let d = fmin (Array.unsafe_get row y) (fmin via_uv via_vu) in
        if d = Float.infinity then any_inf := true
        else begin
          let y' = d -. !c in
          let tt = !s +. y' in
          c := tt -. !s -. y';
          s := tt
        end
      done
    done;
    if !any_inf then Float.infinity else !s
  end

(* --- drift sentinel ---------------------------------------------------- *)

(* The incremental updates are exact in exact arithmetic, but float
   relaxation can associate sums differently from fresh Dijkstra, and a
   stray write (a bug, or injected corruption) silently poisons every
   verdict above.  The sentinel cross-checks the matrix every
   [selfcheck_every] updates with two complementary probes:

   - an O(n²) symmetry sweep: catches any single-cell corruption within
     one cadence window;
   - one fresh-Dijkstra row compare against a round-robin sampled source
     row: catches symmetric/logical drift across n windows.

   Both compare under [Flt.stored_eq], the rounding model's tolerance:
   rows are computed from opposite endpoints and through other sums than
   a fresh pass, so a relative gap of a few n·u is legitimate, and an
   absolute tolerance would call it drift once distances pass about 10⁶.

   On mismatch it degrades gracefully: bump the obs counters and rebuild
   the whole matrix from the graph instead of propagating corrupt
   distances; the triggering update reports {e every} row as changed so
   the layers above invalidate their caches. *)

let set_selfcheck t n =
  let n = max 0 n in
  t.selfcheck_every <- n;
  t.selfcheck_countdown <- n

let selfcheck_now t =
  Metric.Counter.incr c_selfcheck_probes;
  let n = t.n in
  let clean = ref true in
  (try
     for u = 0 to n - 1 do
       for v = u + 1 to n - 1 do
         if
           not
             (Gncg_util.Flt.stored_eq n t.d.(u).(v) t.d.(v).(u))
         then begin
           clean := false;
           raise Exit
         end
       done
     done
   with Exit -> ());
  if !clean && n > 0 then begin
    let s = t.selfcheck_cursor mod n in
    t.selfcheck_cursor <- (s + 1) mod n;
    Flat_adj.sssp_into t.adj s t.scratch;
    let row = t.d.(s) in
    try
      for x = 0 to n - 1 do
        if not (Gncg_util.Flt.stored_eq n t.scratch.(x) row.(x)) then begin
          clean := false;
          raise Exit
        end
      done
    with Exit -> ()
  end;
  if not !clean then begin
    Metric.Counter.incr c_selfcheck_mismatches;
    rebuild t;
    Metric.Counter.incr c_selfcheck_repairs
  end;
  !clean

(* Post-update hook: when the cadence fires and the probe repairs, widen
   the update's change report to all rows — the rebuild may have moved
   any distance. *)
let tick_selfcheck t changed =
  if t.selfcheck_every > 0 then begin
    t.selfcheck_countdown <- t.selfcheck_countdown - 1;
    if t.selfcheck_countdown <= 0 then begin
      t.selfcheck_countdown <- t.selfcheck_every;
      if not (selfcheck_now t) then
        for s = 0 to t.n - 1 do
          Changed_rows.add changed s
        done
    end
  end

let inject_cell_error t u v delta =
  check t u "inject_cell_error";
  check t v "inject_cell_error";
  t.d.(u).(v) <- t.d.(u).(v) +. delta;
  t.sus_len.(u) <- -1

(* --- updates --- *)

(* Relaxes [row] along one route through the new edge, fl(a + src(y))
   for every y, a = fl(d(x,z) + w) for the near endpoint z and [src] the
   far endpoint's snapshot, and appends the entries it lowers to the [k]
   already in [t.lowered].  Returns the new count. *)
let[@inline] relax_route t (row : float array) (a : float) (src : float array) k =
  let lowered = t.lowered in
  let k = ref k in
  for y = 0 to t.n - 1 do
    let via = a +. Array.unsafe_get src y in
    if via < Array.unsafe_get row y then begin
      Array.unsafe_set row y via;
      Array.unsafe_set lowered !k y;
      incr k
    end
  done;
  !k

let add_edge t u v w =
  check t u "add_edge";
  check t v "add_edge";
  Flat_adj.add_edge t.adj u v w;
  Metric.Counter.incr c_insertions;
  let n = t.n in
  let changed = Changed_rows.create n in
  if w < t.d.(u).(v) then begin
    (* Rows u and v are read while every row (incl. themselves) is being
       written: snapshot them into the preallocated workspaces first.  A
       row is reported as changed exactly when some entry strictly
       decreased. *)
    let du = t.snap_u and dv = t.snap_v in
    Array.blit t.d.(u) 0 du 0 n;
    Array.blit t.d.(v) 0 dv 0 n;
    (* Insertion support: the route x -> u -> v -> y can shorten row x
       only if the new edge offers x a shortcut to v, d(x,u) + w <
       d(x,v), and x -> v -> u -> y only under the mirror test.  A
       route that fails its test by the margin δ = [Flt.stored_margin]
       at 2M + w, M the largest finite entry of the two snapshots,
       offers no entry of the row less than it holds: the stored
       entries meet the triangle inequality through v (and u) up to a
       relative (4n + 2)·u, far inside δ, and rounding is monotone
       (ALGORITHMS.md, "Insertion support").  So a row is relaxed along
       each route that passes, one after the other, and skipped when
       neither does: two strict-< passes leave min(cur, via_uv, via_vu),
       the bits of the three-way compare-select, as the values are never
       NaN or -0.  An entry both passes lower is listed twice. *)
    let m = ref 0.0 in
    for x = 0 to n - 1 do
      let a = Array.unsafe_get du x and b = Array.unsafe_get dv x in
      if a > !m && a < Float.infinity then m := a;
      if b > !m && b < Float.infinity then m := b
    done;
    let delta = Gncg_util.Flt.stored_margin n ((2.0 *. !m) +. w) in
    let relaxed = ref 0 in
    for x = 0 to n - 1 do
      let dxu = Array.unsafe_get du x and dxv = Array.unsafe_get dv x in
      let a_uv = dxu +. w and a_vu = dxv +. w in
      let uv = a_uv < dxv +. delta and vu = a_vu < dxu +. delta in
      if uv || vu then begin
        incr relaxed;
        let row = Array.unsafe_get t.d x in
        let k = if uv then relax_route t row a_uv dv 0 else 0 in
        let k = if vu then relax_route t row a_vu du k else k in
        if k > 0 then begin
          Changed_rows.add changed x;
          (* Suspect sets: the changed row keeps one when it had one and
             at most [suspect_cap] vertices fail now. *)
          let len = Array.unsafe_get t.sus_len x in
          if len >= 0 then begin
            let sus = Array.unsafe_get t.sus x in
            Array.blit sus 0 t.cands 0 len;
            Array.unsafe_set t.cands len u;
            Array.unsafe_set t.cands (len + 1) v;
            Array.unsafe_set t.sus_len x
              (Flat_adj.insertion_failing_into t.adj row x t.cands (len + 2) t.lowered k sus)
          end
        end
      end
    done;
    Metric.Counter.add c_rows_relaxed !relaxed;
    Metric.Counter.add c_rows_changed (Changed_rows.cardinal changed)
  end;
  (* Suspect sets of the unchanged rows: every such row kept its values,
     and only u and v gained an edge. *)
  for x = 0 to n - 1 do
    if Array.unsafe_get t.sus_len x >= 0 && not (Changed_rows.mem changed x) then begin
      let row = Array.unsafe_get t.d x in
      let dxu = Array.unsafe_get row u and dxv = Array.unsafe_get row v in
      if dxv +. w < dxu then add_suspect t x u;
      if dxu +. w < dxv then add_suspect t x v
    end
  done;
  tick_selfcheck t changed;
  changed

(* The deletion's tightness tolerance on row s: [Flt.stored_margin] at
   max(d(s,u), d(s,v)) + w, floored at [Flt.eps].  Copied here with
   float annotations so that the per-row test inlines unboxed;
   test/test_kernel.ml checks the copy against [Flt] bit for bit.  Below
   the floor (8n·ε·mag < 1e-9) the selection is the absolute test's. *)
let[@inline] deletion_tol n (dsu : float) (dsv : float) (w : float) =
  let mag = (if dsv > dsu then dsv else dsu) +. w in
  let m = 8.0 *. float_of_int n *. epsilon_float *. mag in
  if m < Gncg_util.Flt.eps then Gncg_util.Flt.eps else m

(* [Flt.approx_eq ~tol], inlined: equal infinities compare equal. *)
let[@inline] near (a : float) (b : float) tol = a = b || Float.abs (a -. b) <= tol

let remove_edge t u v =
  check t u "remove_edge";
  check t v "remove_edge";
  let n = t.n in
  let changed = Changed_rows.create n in
  (match Flat_adj.weight t.adj u v with
  | None -> ()
  | Some w ->
    Flat_adj.remove_edge t.adj u v;
    Metric.Counter.incr c_deletions;
    (* A shortest path from s can use (u,v) only if the edge is tight on
       s's row: d(s,u) + w = d(s,v) (or symmetrically).  Tightness is
       tested behind [deletion_tol], not exact equality — rows produced
       by earlier incremental insertions associate their sums
       differently than Dijkstra would, so a genuinely used edge can be
       off by a relative few n·u.  The tolerance only over-approximates
       the affected set (extra recomputes), never misses a used edge
       (ALGORITHMS.md, "Rounding model").  Each affected row is copied
       into the preallocated scratch and settled there from its own
       stored values: the kernel resets only the vertices whose value the
       removal (or an earlier insertion's rounding) left unsupported, and
       returns [sssp_into]'s row bit for bit.  A settled row that differs
       from the stored one takes its place, and the stored one becomes
       the scratch, so the change report is exact on the recomputed
       set. *)
    let recomputed = ref 0 and settled = ref 0 in
    for s = 0 to n - 1 do
      let row = Array.unsafe_get t.d s in
      let dsu = Array.unsafe_get row u and dsv = Array.unsafe_get row v in
      let tol = deletion_tol n dsu dsv w in
      if near (dsu +. w) dsv tol || near (dsv +. w) dsu tol then begin
        Array.blit row 0 t.scratch 0 n;
        (* Only u and v lost an edge: the row's suspects and they cover
           every vertex that can fail now. *)
        let k = Array.unsafe_get t.sus_len s in
        let count =
          if k >= 0 then begin
            Array.blit (Array.unsafe_get t.sus s) 0 t.cands 0 k;
            Array.unsafe_set t.cands k u;
            Array.unsafe_set t.cands (k + 1) v;
            Flat_adj.settle_listed_into t.adj s t.scratch t.cands (k + 2)
          end
          else begin
            Metric.Counter.incr c_full_scans;
            Flat_adj.settle_into t.adj s t.scratch
          end
        in
        settled := !settled + count;
        Array.unsafe_set t.sus_len s
          (Flat_adj.settled_failing_into t.adj t.scratch (Array.unsafe_get t.sus s));
        let x = ref 0 in
        while !x < n && Array.unsafe_get t.scratch !x = Array.unsafe_get row !x do
          incr x
        done;
        if !x < n then begin
          Array.unsafe_set t.d s t.scratch;
          t.scratch <- row;
          Changed_rows.add changed s
        end;
        incr recomputed
      end
    done;
    Metric.Counter.add c_deletion_rows_recomputed !recomputed;
    Metric.Counter.add c_settled_vertices !settled;
    Metric.Counter.add c_rows_changed (Changed_rows.cardinal changed));
  tick_selfcheck t changed;
  changed

(* --- what-if evaluation --- *)

(* The edit lives only in the adjacency, for the length of one kernel
   pass; the matrix is never touched.  The pass settles [dst] from the
   source's live row, which differs from the edited row only where the
   edit reaches. *)
let settle_edited t ?remove ?add source dst =
  Array.blit t.d.(source) 0 dst 0 t.n;
  Metric.Counter.incr c_whatif_sssp;
  (* Below [whatif_settle_min_n] the pass ignores its guess: no list. *)
  let count =
    if t.n < Flat_adj.whatif_settle_min_n then -1
    else if Array.unsafe_get t.sus_len source >= 0 then Array.unsafe_get t.sus_len source
    else scan_row t source dst
  in
  let suspects =
    if Array.unsafe_get t.sus_len source >= 0 then Array.unsafe_get t.sus source else t.fails
  in
  Metric.Counter.add c_settled_vertices
    (Flat_adj.sssp_edited_listed_into t.adj ?remove ?add ~suspects ~count source dst)

let sssp_edited_into t ?remove ?add source dst =
  check t source "sssp_edited_into";
  if Array.length dst < t.n then invalid_arg "Incr_apsp.sssp_edited_into: row too short";
  settle_edited t ?remove ?add source dst

let sssp_edited_sum t ?remove ?add source =
  check t source "sssp_edited_sum";
  settle_edited t ?remove ?add source t.scratch;
  Gncg_util.Flt.sum t.scratch

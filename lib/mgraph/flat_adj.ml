(* Per-vertex neighbour-id and unboxed weight arrays with degree counts,
   plus the scratch of one indexed binary heap.  The heap stores vertex
   ids only and orders them by the output row being written, so the SSSP
   loop below passes no float across a function call, returns no option
   or tuple and builds no closure: it allocates nothing. *)

type t = {
  n : int;
  nbr : int array array;          (* nbr.(u).(0 .. deg.(u)-1): neighbour ids *)
  wt : Float.Array.t array;       (* wt.(u).(i): weight of edge (u, nbr.(u).(i)) *)
  deg : int array;
  heap : int array;               (* heap slots -> vertex id *)
  pos : int array;                (* vertex id -> heap slot, or -1 *)
  no_bound : float array;         (* +inf everywhere: [sssp_into]'s bound *)
  ids : int array;                (* [sssp_into]'s reached ids, unread *)
}

let create n =
  if n < 0 then invalid_arg "Flat_adj.create: negative size";
  {
    n;
    nbr = Array.make n [||];
    wt = Array.make n (Float.Array.create 0);
    deg = Array.make n 0;
    heap = Array.make (max n 1) 0;
    pos = Array.make (max n 1) (-1);
    no_bound = Array.make n Float.infinity;
    ids = Array.make n 0;
  }

let check t u name =
  if u < 0 || u >= t.n then
    invalid_arg (Printf.sprintf "Flat_adj.%s: vertex %d out of range" name u)

let find t u v =
  let nb = t.nbr.(u) in
  let rec go i = if i < 0 || Array.unsafe_get nb i = v then i else go (i - 1) in
  go (t.deg.(u) - 1)

let has_edge t u v =
  check t u "has_edge";
  check t v "has_edge";
  find t u v >= 0

let degree t u =
  check t u "degree";
  t.deg.(u)

let append t u v w =
  let d = t.deg.(u) in
  if d = Array.length t.nbr.(u) then begin
    let cap = max 4 (2 * d) in
    let nb = Array.make cap 0 and wt = Float.Array.create cap in
    Array.blit t.nbr.(u) 0 nb 0 d;
    Float.Array.blit t.wt.(u) 0 wt 0 d;
    t.nbr.(u) <- nb;
    t.wt.(u) <- wt
  end;
  t.nbr.(u).(d) <- v;
  Float.Array.set t.wt.(u) d w;
  t.deg.(u) <- d + 1

let check_edge t u v w name =
  check t u name;
  check t v name;
  if u = v then invalid_arg (Printf.sprintf "Flat_adj.%s: self-loop" name);
  if w < 0.0 || Float.is_nan w then
    invalid_arg (Printf.sprintf "Flat_adj.%s: negative weight" name)

let add_edge t u v w =
  check_edge t u v w "add_edge";
  if find t u v >= 0 then invalid_arg "Flat_adj.add_edge: edge already present";
  append t u v w;
  append t v u w

(* O(deg) swap-remove: the last entry takes the removed one's slot. *)
let drop t u i =
  let last = t.deg.(u) - 1 in
  t.nbr.(u).(i) <- t.nbr.(u).(last);
  Float.Array.set t.wt.(u) i (Float.Array.get t.wt.(u) last);
  t.deg.(u) <- last

let remove_edge t u v =
  check t u "remove_edge";
  check t v "remove_edge";
  let i = find t u v in
  if i >= 0 then begin
    drop t u i;
    drop t v (find t v u)
  end

let isolate t u =
  check t u "isolate";
  for i = 0 to t.deg.(u) - 1 do
    let v = t.nbr.(u).(i) in
    drop t v (find t v u)
  done;
  t.deg.(u) <- 0

let of_wgraph g =
  let t = create (Wgraph.n g) in
  Wgraph.iter_edges g (fun u v w ->
      append t u v w;
      append t v u w);
  t

let copy t =
  {
    (create t.n) with
    nbr = Array.map Array.copy t.nbr;
    wt = Array.map Float.Array.copy t.wt;
    deg = Array.copy t.deg;
  }

(* --- the SSSP kernel ----------------------------------------------------- *)

(* Both sifts use the hole method: the moving id is written once, at its
   final slot.  Priorities are read from [dist] and never passed. *)
let sift_up heap pos (dist : float array) i =
  let v = Array.unsafe_get heap i in
  let dv = Array.unsafe_get dist v in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pv = Array.unsafe_get heap p in
    if dv < Array.unsafe_get dist pv then begin
      Array.unsafe_set heap !i pv;
      Array.unsafe_set pos pv !i;
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set pos v !i

let sift_down heap pos (dist : float array) size =
  let v = Array.unsafe_get heap 0 in
  let dv = Array.unsafe_get dist v in
  let i = ref 0 and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= size then moving := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < size
          && Array.unsafe_get dist (Array.unsafe_get heap r)
             < Array.unsafe_get dist (Array.unsafe_get heap l)
        then r
        else l
      in
      let cv = Array.unsafe_get heap c in
      if Array.unsafe_get dist cv < dv then begin
        Array.unsafe_set heap !i cv;
        Array.unsafe_set pos cv !i;
        i := c
      end
      else moving := false
    end
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set pos v !i

(* Dijkstra from a seeded source, with one more test per relaxation: a
   value not strictly below [bound] is never written, so such a vertex is
   never pushed and stays +inf.  Every pushed vertex is settled, and its
   id is recorded once, when it is first pushed.  [sssp_into] is this
   loop under an all-+inf bound: on dyn-greedy-n100, whose time is mostly
   [sssp_into], a separate unbounded loop measured no faster (op_ms
   171.9 ms against 173.9 ms, medians of 10 alternating pairs on a 2-core
   x86-64 VM, each side faster in 5 of them). *)
let sssp_bounded_into t ~src ~start ~bound dist reached =
  let n = t.n in
  check t src "sssp_bounded_into";
  if Array.length dist < n || Array.length bound < n || Array.length reached < n then
    invalid_arg "Flat_adj.sssp_bounded_into: array too short";
  if Float.is_nan start || start < 0.0 then
    invalid_arg "Flat_adj.sssp_bounded_into: negative start";
  if not (start < Array.unsafe_get bound src) then 0
  else begin
    let heap = t.heap and pos = t.pos in
    Array.unsafe_set dist src start;
    Array.unsafe_set heap 0 src;
    Array.unsafe_set pos src 0;
    Array.unsafe_set reached 0 src;
    let count = ref 1 and size = ref 1 in
    while !size > 0 do
      let u = Array.unsafe_get heap 0 in
      Array.unsafe_set pos u (-1);
      decr size;
      if !size > 0 then begin
        Array.unsafe_set heap 0 (Array.unsafe_get heap !size);
        sift_down heap pos dist !size
      end;
      let du = Array.unsafe_get dist u in
      let nb = Array.unsafe_get t.nbr u and wt = Array.unsafe_get t.wt u in
      for i = 0 to Array.unsafe_get t.deg u - 1 do
        let v = Array.unsafe_get nb i in
        let dv = du +. Float.Array.unsafe_get wt i in
        if dv < Array.unsafe_get dist v && dv < Array.unsafe_get bound v then begin
          Array.unsafe_set dist v dv;
          let slot = Array.unsafe_get pos v in
          (* A settled vertex is never improved, so [slot < 0] here is a
             first push. *)
          if slot < 0 then begin
            Array.unsafe_set reached !count v;
            incr count;
            Array.unsafe_set heap !size v;
            sift_up heap pos dist !size;
            incr size
          end
          else sift_up heap pos dist slot
        end
      done
    done;
    !count
  end

let sssp_into t s dist =
  let n = t.n in
  check t s "sssp_into";
  if Array.length dist < n then invalid_arg "Flat_adj.sssp_into: row too short";
  Array.fill dist 0 n Float.infinity;
  ignore (sssp_bounded_into t ~src:s ~start:0.0 ~bound:t.no_bound dist t.ids)

(* --- what-if passes ------------------------------------------------------ *)

let sssp_edited_into t ?remove ?add s dst =
  check t s "sssp_edited_into";
  if Array.length dst < t.n then invalid_arg "Flat_adj.sssp_edited_into: row too short";
  (* Validate everything before the first edit, so a bad argument can
     never leave the adjacency half-edited. *)
  Option.iter
    (fun (u, v) ->
      check t u "sssp_edited_into";
      check t v "sssp_edited_into")
    remove;
  Option.iter (fun (u, v, w) -> check_edge t u v w "sssp_edited_into") add;
  let removed =
    match remove with
    | None -> None
    | Some (u, v) ->
      let i = find t u v in
      if i < 0 then None
      else begin
        let w = Float.Array.get t.wt.(u) i in
        remove_edge t u v;
        Some (u, v, w)
      end
  in
  let added =
    match add with
    | Some (u, v, w) when find t u v < 0 ->
      add_edge t u v w;
      Some (u, v)
    | _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun (u, v) -> remove_edge t u v) added;
      Option.iter (fun (u, v, w) -> add_edge t u v w) removed)
    (fun () -> sssp_into t s dst)

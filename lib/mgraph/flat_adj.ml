(* Per-vertex neighbour-id and unboxed weight arrays with degree counts,
   plus the scratch of one indexed binary heap.  The heap stores vertex
   ids only and orders them by the output row being written, so the SSSP
   loop below passes no float across a function call, returns no option
   or tuple and builds no closure: it allocates nothing.  [settle_into]'s
   reset queue and membership flags are sized on its first call, so an
   adjacency that never settles a row never pays for them. *)

type t = {
  n : int;
  nbr : int array array;          (* nbr.(u).(0 .. deg.(u)-1): neighbour ids *)
  wt : float array array;         (* wt.(u).(i): weight of edge (u, nbr.(u).(i)) *)
  deg : int array;
  heap : int array;               (* heap slots -> vertex id *)
  pos : int array;                (* vertex id -> heap slot, or -1 *)
  no_bound : float array;         (* +inf everywhere: [sssp_into]'s bound *)
  ids : int array;                (* [sssp_into]'s reached ids, unread *)
  mutable queue : int array;      (* [settle_into]'s reset vertices *)
  mutable mark : Bytes.t;         (* [settle_into]'s reset flags, all '\000' between calls *)
  mutable pushed : int;           (* ids.(0 .. pushed-1): the last settle's pushed
                                     vertices; -1 once a full pass reused [ids] *)
}

let create n =
  if n < 0 then invalid_arg "Flat_adj.create: negative size";
  {
    n;
    nbr = Array.make n [||];
    wt = Array.make n [||];
    deg = Array.make n 0;
    heap = Array.make (max n 1) 0;
    pos = Array.make (max n 1) (-1);
    no_bound = Array.make n Float.infinity;
    ids = Array.make n 0;
    queue = [||];
    mark = Bytes.empty;
    pushed = -1;
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

let weight t u v =
  check t u "weight";
  check t v "weight";
  let i = find t u v in
  if i < 0 then None else Some t.wt.(u).(i)

let degree t u =
  check t u "degree";
  t.deg.(u)

let mark_neighbours t u (marks : bool array) b =
  check t u "mark_neighbours";
  let nb = t.nbr.(u) in
  for i = 0 to t.deg.(u) - 1 do
    marks.(nb.(i)) <- b
  done

(* One pass per neighbour z over its row: the running least offer
   fl(w(u,z) + rows.(z).(x)), the neighbour that makes it, and the least
   offer of any other neighbour.  An offer equal to the least becomes the
   second, so every value is independent of the neighbour order. *)
let nearest_two_into t (rows : float array array) u (best : float array) (arg : int array)
    (second : float array) =
  check t u "nearest_two_into";
  let n = t.n in
  if Array.length rows < n || Array.length best < n || Array.length arg < n
     || Array.length second < n
  then invalid_arg "Flat_adj.nearest_two_into: arrays shorter than n";
  Array.fill best 0 n Float.infinity;
  Array.fill second 0 n Float.infinity;
  Array.fill arg 0 n (-1);
  let nb = t.nbr.(u) and wt = t.wt.(u) in
  for i = 0 to t.deg.(u) - 1 do
    let z = Array.unsafe_get nb i and w = Array.unsafe_get wt i in
    let dz = rows.(z) in
    if Array.length dz < n then invalid_arg "Flat_adj.nearest_two_into: row shorter than n";
    for x = 0 to n - 1 do
      let c = w +. Array.unsafe_get dz x in
      let b = Array.unsafe_get best x in
      if c < b then begin
        Array.unsafe_set second x b;
        Array.unsafe_set best x c;
        Array.unsafe_set arg x z
      end
      else if c < Array.unsafe_get second x then Array.unsafe_set second x c
    done
  done;
  best.(u) <- 0.0;
  second.(u) <- 0.0;
  arg.(u) <- -1

let append t u v w =
  let d = t.deg.(u) in
  if d = Array.length t.nbr.(u) then begin
    let cap = max 4 (2 * d) in
    let nb = Array.make cap 0 and wt = Array.make cap 0.0 in
    Array.blit t.nbr.(u) 0 nb 0 d;
    Array.blit t.wt.(u) 0 wt 0 d;
    t.nbr.(u) <- nb;
    t.wt.(u) <- wt
  end;
  t.nbr.(u).(d) <- v;
  t.wt.(u).(d) <- w;
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
  t.wt.(u).(i) <- t.wt.(u).(last);
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

let to_wgraph t =
  let g = Wgraph.create t.n in
  for u = 0 to t.n - 1 do
    for i = 0 to t.deg.(u) - 1 do
      let v = t.nbr.(u).(i) in
      if u < v then Wgraph.add_edge g u v t.wt.(u).(i)
    done
  done;
  g

let copy t =
  {
    (create t.n) with
    nbr = Array.map Array.copy t.nbr;
    wt = Array.map Array.copy t.wt;
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

(* The Dijkstra loop over a heap holding [size] vertices, each keyed on
   its [dist] entry, with one more test per relaxation: a value not
   strictly below [bound] is never written, so such a vertex is never
   pushed.  A vertex is recorded in [reached] once, when first pushed;
   [count] entries are already there.  Pops come in nondecreasing order
   (each relaxation yields fl(du + w) >= du), so a popped vertex is never
   improved.  Returns the new count. *)
let drain t ~bound (dist : float array) reached count size =
  let heap = t.heap and pos = t.pos in
  let count = ref count and size = ref size in
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
      let dv = du +. Array.unsafe_get wt i in
      if dv < Array.unsafe_get dist v && dv < Array.unsafe_get bound v then begin
        Array.unsafe_set dist v dv;
        let slot = Array.unsafe_get pos v in
        (* A popped vertex is never improved, so [slot < 0] here is a
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

(* Dijkstra from a seeded source under [bound].  Every pushed vertex is
   settled.  [sssp_into] is this loop under an all-+inf bound: on
   dyn-greedy-n100, whose time is mostly [sssp_into], a separate
   unbounded loop measured no faster (op_ms 171.9 ms against 173.9 ms,
   medians of 10 alternating pairs on a 2-core x86-64 VM, each side
   faster in 5 of them). *)
let sssp_bounded_into t ~src ~start ~bound dist reached =
  let n = t.n in
  check t src "sssp_bounded_into";
  if Array.length dist < n || Array.length bound < n || Array.length reached < n then
    invalid_arg "Flat_adj.sssp_bounded_into: array too short";
  if Float.is_nan start || start < 0.0 then
    invalid_arg "Flat_adj.sssp_bounded_into: negative start";
  if not (start < Array.unsafe_get bound src) then 0
  else begin
    Array.unsafe_set dist src start;
    Array.unsafe_set t.heap 0 src;
    Array.unsafe_set t.pos src 0;
    Array.unsafe_set reached 0 src;
    drain t ~bound dist reached 1 1
  end

let sssp_into t s dist =
  let n = t.n in
  check t s "sssp_into";
  if Array.length dist < n then invalid_arg "Flat_adj.sssp_into: row too short";
  Array.fill dist 0 n Float.infinity;
  t.pushed <- -1;
  ignore (sssp_bounded_into t ~src:s ~start:0.0 ~bound:t.no_bound dist t.ids)

(* Let D be [sssp_into]'s row: the least float length of a path from s,
   summed edge by edge.  A guess r with r(s) = 0 is repaired in four
   steps, each over the vertices the previous one names.

   1. The local test.  A vertex x <> s passes when no edge offers it
      less, fl(r(p) + w) >= r(x) for every edge (p, x), and a finite
      r(x) has a strict exact predecessor: an edge (p, x) with
      r(p) < r(x) = fl(r(p) + w).  The rest fail.
   2. The reset set R: the failing vertices and, transitively, their
      tight children (y with r(x) < r(y) = fl(r(x) + w)).
   3. Every vertex of R is set to +inf, then seeded with the least
      offer of its neighbours and pushed when finite.
   4. The Dijkstra loop runs from those seeds; it may also lower a
      vertex outside R, which it then pushes and settles like any other.

   Why the result is D, bit for bit.  Outside R, every strict exact
   predecessor of a finite vertex lies outside R too (else the vertex
   would be a tight child of R), so following them walks strictly down
   to s: r(x) is the float length of a path, hence >= D(x), and +inf is
   >= D(x) as well.  The seeds and every relaxation are offers from
   values >= D, and D(x) <= fl(D(p) + w) on every edge, so the loop
   never goes below D.  Conversely, when the loop stops, every edge
   (p, x) with x <> s has f(x) <= fl(f(p) + w): between two vertices
   outside R that the loop left alone by the local test, into R by the
   seed, and out of any vertex the loop popped by its relaxation.  With
   f(s) = 0, induction along the path that attains D(x), through the
   monotone x -> fl(x + w), gives f(x) <= D(x). *)

(* Step 1 for one vertex x <> s: [true] when x fails the local test.
   The one definition of the test: [scan_failing], [enqueue_failing]
   and [insertion_failing_into] all call it.  It must stay [@inline]:
   with an out-of-line call per vertex, full scans made the n = 1000
   tree anchor (ROADMAP item 9) 13-19% slower. *)
let[@inline] fails t (row : float array) x =
  let rx = Array.unsafe_get row x in
  let nb = Array.unsafe_get t.nbr x and wt = Array.unsafe_get t.wt x in
  let deg = Array.unsafe_get t.deg x in
  let i = ref 0 and lower = ref false and pred = ref false in
  while !i < deg && not !lower do
    let rp = Array.unsafe_get row (Array.unsafe_get nb !i) in
    let offer = rp +. Array.unsafe_get wt !i in
    if offer < rx then lower := true else if offer = rx && rp < rx then pred := true;
    incr i
  done;
  !lower || not (!pred || rx = Float.infinity)

(* Step 1 over every vertex but [s]: the failing ones are written to
   [out] in ascending order, and their count is returned. *)
let scan_failing t s (row : float array) (out : int array) =
  let k = ref 0 in
  for x = 0 to t.n - 1 do
    if x <> s && fails t row x then begin
      Array.unsafe_set out !k x;
      incr k
    end
  done;
  !k

(* Queues [x] for step 2 when it is not the source, not queued yet and
   fails the local test.  Returns the new queue length. *)
let enqueue_failing t s row x k =
  if x <> s && Bytes.unsafe_get t.mark x = '\000' && fails t row x then begin
    Bytes.unsafe_set t.mark x '\001';
    Array.unsafe_set t.queue k x;
    k + 1
  end
  else k

(* Insertion sort of a.(0 .. k-1): a listed step 1 queues its failures
   in the order it tested them, and steps 2-4 then see them in the
   ascending order of a full scan. *)
let sort_prefix (a : int array) k =
  for i = 1 to k - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= 0 && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Steps 2-4 over the [k] failing vertices queued and marked by step 1. *)
let repair t s (row : float array) k =
  if k = 0 then begin
    t.pushed <- 0;
    0
  end
  else begin
    let queue = t.queue and mark = t.mark in
    let k = ref k in
    let head = ref 0 in
    while !head < !k do
      let x = Array.unsafe_get queue !head in
      incr head;
      let rx = Array.unsafe_get row x in
      if rx < Float.infinity then begin
        let nb = Array.unsafe_get t.nbr x and wt = Array.unsafe_get t.wt x in
        for i = 0 to Array.unsafe_get t.deg x - 1 do
          let y = Array.unsafe_get nb i in
          (* The source is pinned at 0: a negative guess can make it a
             tight child. *)
          if y <> s && Bytes.unsafe_get mark y = '\000' then begin
            let ry = Array.unsafe_get row y in
            if rx < ry && rx +. Array.unsafe_get wt i = ry then begin
              Bytes.unsafe_set mark y '\001';
              Array.unsafe_set queue !k y;
              incr k
            end
          end
        done
      end
    done;
    let k = !k in
    for i = 0 to k - 1 do
      let x = Array.unsafe_get queue i in
      Array.unsafe_set row x Float.infinity;
      Bytes.unsafe_set mark x '\000'
    done;
    let heap = t.heap and pos = t.pos and reached = t.ids in
    let size = ref 0 in
    for i = 0 to k - 1 do
      let x = Array.unsafe_get queue i in
      let nb = Array.unsafe_get t.nbr x and wt = Array.unsafe_get t.wt x in
      let m = ref Float.infinity in
      for j = 0 to Array.unsafe_get t.deg x - 1 do
        let offer = Array.unsafe_get row (Array.unsafe_get nb j) +. Array.unsafe_get wt j in
        if offer < !m then m := offer
      done;
      if !m < Float.infinity then begin
        Array.unsafe_set row x !m;
        Array.unsafe_set reached !size x;
        Array.unsafe_set heap !size x;
        sift_up heap pos row !size;
        incr size
      end
    done;
    let pushed = drain t ~bound:t.no_bound row reached !size !size in
    t.pushed <- pushed;
    (* Every pushed vertex ends finite and every unpushed one of R at
       +inf: [pushed] plus those counts R and each vertex lowered
       outside it. *)
    let unreached = ref 0 in
    for i = 0 to k - 1 do
      if Array.unsafe_get row (Array.unsafe_get queue i) = Float.infinity then incr unreached
    done;
    pushed + !unreached
  end

(* The settle, with step 1 over every vertex when [len < 0], and else
   over [list.(0 .. len-1)] plus the endpoints of [remove] and [add]. *)
let settle_gen t s (row : float array) list len remove add =
  let n = t.n in
  if not (Array.unsafe_get row s = 0.0) then begin
    sssp_into t s row;
    n
  end
  else begin
    (* A -0 source entry passes the test above; D's is +0. *)
    Array.unsafe_set row s 0.0;
    if Array.length t.queue < n then begin
      t.queue <- Array.make n 0;
      t.mark <- Bytes.make n '\000'
    end;
    let k = ref 0 in
    if len < 0 then begin
      k := scan_failing t s row t.queue;
      for i = 0 to !k - 1 do
        Bytes.unsafe_set t.mark (Array.unsafe_get t.queue i) '\001'
      done
    end
    else begin
      for i = 0 to len - 1 do
        k := enqueue_failing t s row (Array.unsafe_get list i) !k
      done;
      (match remove with
      | Some (u, v) -> k := enqueue_failing t s row v (enqueue_failing t s row u !k)
      | None -> ());
      (match add with
      | Some (u, v, _) -> k := enqueue_failing t s row v (enqueue_failing t s row u !k)
      | None -> ());
      sort_prefix t.queue !k
    end;
    repair t s row !k
  end

let check_row t s (row : float array) name =
  check t s name;
  if Array.length row < t.n then invalid_arg (Printf.sprintf "Flat_adj.%s: row too short" name)

let check_list t list len name =
  if len > Array.length list then
    invalid_arg (Printf.sprintf "Flat_adj.%s: list shorter than its count" name);
  for i = 0 to len - 1 do
    check t (Array.unsafe_get list i) name
  done

let settle_into t s row =
  check_row t s row "settle_into";
  settle_gen t s row [||] (-1) None None

let settle_listed_into t s row suspects k =
  check_row t s row "settle_listed_into";
  check_list t suspects k "settle_listed_into";
  settle_gen t s row suspects k None None

let failing_into t s row out =
  check_row t s row "failing_into";
  if Array.length out < t.n then invalid_arg "Flat_adj.failing_into: output too short";
  scan_failing t s row out

(* Which vertices fail after a settle.  The row is then D, a fixed point,
   so no edge offers any vertex less, and a vertex left at +inf passes.
   A vertex x outside R that the loop did not lower passed before and
   keeps a strict exact predecessor p: p lies outside R, and if the loop
   lowered p then fl(D(p) + w) < r(x) would have lowered x too, so
   fl(D(p) + w) = r(x) = D(x) with D(p) < r(p) < r(x).  Only the pushed
   vertices, listed in [ids], can fail, and each fails exactly when it
   has no strict exact predecessor: the search stops at the first. *)
let lacks_strict_pred t (row : float array) x =
  let rx = Array.unsafe_get row x in
  let nb = Array.unsafe_get t.nbr x and wt = Array.unsafe_get t.wt x in
  let deg = Array.unsafe_get t.deg x in
  let i = ref 0 and pred = ref false in
  while !i < deg && not !pred do
    let rp = Array.unsafe_get row (Array.unsafe_get nb !i) in
    if rp < rx && rp +. Array.unsafe_get wt !i = rx then pred := true;
    incr i
  done;
  not !pred

let settled_failing_into t (row : float array) out =
  if t.pushed < 0 || Array.length row < t.n then -1
  else begin
    let cap = Array.length out in
    let m = ref 0 and i = ref 0 in
    while !m >= 0 && !i < t.pushed do
      let x = Array.unsafe_get t.ids !i in
      if lacks_strict_pred t row x then
        if !m = cap then m := -1
        else begin
          Array.unsafe_set out !m x;
          incr m
        end;
      incr i
    done;
    if !m > 0 then sort_prefix out !m;
    !m
  end

(* Appends [x] to the [m] failing vertices in [out]; -1 once they
   outgrow it. *)
let[@inline] push_failing (out : int array) m x =
  if m < 0 then m
  else if m = Array.length out then -1
  else begin
    Array.unsafe_set out m x;
    m + 1
  end

(* Which vertices of row [s] fail after an insertion that lowered
   exactly [lowered.(0 .. nlowered-1)] of it, given that every vertex
   outside [listed.(0 .. nlisted-1)] passed before.  The listed and
   lowered vertices get the full local test.  A neighbour y of a lowered
   p that is neither listed nor lowered kept its value and its edges,
   and its offers changed only on edges from lowered vertices, each by a
   monotone fl(r'(p) + w) <= fl(r(p) + w): a lowered strict exact
   predecessor either still gives r(y) exactly, from r'(p) < r(p), or
   offers y less.  So y fails exactly when some lowered neighbour offers
   it less, and every other vertex passes as before. *)
let insertion_failing_into t (row : float array) s listed nlisted lowered nlowered out =
  let n = t.n in
  check_row t s row "insertion_failing_into";
  check_list t listed nlisted "insertion_failing_into";
  check_list t lowered nlowered "insertion_failing_into";
  if Array.length t.queue < n then begin
    t.queue <- Array.make n 0;
    t.mark <- Bytes.make n '\000'
  end;
  let queue = t.queue and mark = t.mark in
  (* Every vertex tested is marked and queued, so each is tested once
     and the flags can be cleared afterwards; [s], never tested, is
     marked first. *)
  Bytes.unsafe_set mark s '\001';
  Array.unsafe_set queue 0 s;
  let q = ref 1 and m = ref 0 in
  let i = ref 0 in
  while !m >= 0 && !i < nlisted + nlowered do
    let x =
      if !i < nlisted then Array.unsafe_get listed !i
      else Array.unsafe_get lowered (!i - nlisted)
    in
    if Bytes.unsafe_get mark x = '\000' then begin
      Bytes.unsafe_set mark x '\001';
      Array.unsafe_set queue !q x;
      incr q;
      if fails t row x then m := push_failing out !m x
    end;
    incr i
  done;
  let i = ref 0 in
  while !m >= 0 && !i < nlowered do
    let p = Array.unsafe_get lowered !i in
    let rp = Array.unsafe_get row p in
    let nb = Array.unsafe_get t.nbr p and wt = Array.unsafe_get t.wt p in
    for j = 0 to Array.unsafe_get t.deg p - 1 do
      let y = Array.unsafe_get nb j in
      if
        Bytes.unsafe_get mark y = '\000'
        && rp +. Array.unsafe_get wt j < Array.unsafe_get row y
      then begin
        Bytes.unsafe_set mark y '\001';
        Array.unsafe_set queue !q y;
        incr q;
        m := push_failing out !m y
      end
    done;
    incr i
  done;
  for i = 0 to !q - 1 do
    Bytes.unsafe_set mark (Array.unsafe_get queue i) '\000'
  done;
  if !m > 0 then sort_prefix out !m;
  !m

(* --- what-if passes ------------------------------------------------------ *)

(* A what-if edits the source's own edges, so its settle resets the whole
   region the sold edge served, about a third of the row on random
   geometric networks.  Below this size the heap costs too little for the
   settle's scan of every edge to pay: per what-if from the unedited row,
   a plain pass took 1.4 us against 2.0 us at n = 20, they tied at
   n = 32, split by host model at n = 48, and the settle won from n = 64
   on (greedy-converged networks, 2-core x86-64 VM).  A settle from a
   known suspect list tests only a few vertices and is cheaper: on
   uniform hosts 0.96 us against a plain 1.68 us at n = 20 and 2.79
   against 8.59 us at n = 64, on tree hosts 0.27 against 0.28 us at
   n = 20 and 1.28 against 2.10 us at n = 64, while a settle that scans
   every vertex took 1.79 / 6.84 us and 0.56 / 2.79 us there
   (docs/ALGORITHMS.md, "Suspect sets").  The threshold still follows
   the full-scan settle, which [Greedy]'s what-ifs always run, although
   the store's what-ifs at and above it now start from a set 97-99% of
   the time, since insertions keep the sets of the rows they change: a
   lower threshold for settles from a set needs its own constant. *)
let whatif_settle_min_n = 64

let edited_gen t ?remove ?add s dst list len =
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
        let w = t.wt.(u).(i) in
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
    (fun () ->
      if t.n < whatif_settle_min_n then begin
        sssp_into t s dst;
        t.n
      end
      else settle_gen t s dst list len remove add)

let sssp_edited_into t ?remove ?add s dst =
  check_row t s dst "sssp_edited_into";
  edited_gen t ?remove ?add s dst [||] (-1)

let sssp_edited_listed_into t ?remove ?add ~suspects ~count s dst =
  check_row t s dst "sssp_edited_listed_into";
  check_list t suspects count "sssp_edited_listed_into";
  edited_gen t ?remove ?add s dst suspects count

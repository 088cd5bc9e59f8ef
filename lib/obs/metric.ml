(* Plain-ref gate: hot paths read it unsynchronized.  A racy stale read
   can only lose or record a handful of borderline updates around the
   moment profiling is toggled — counts are monotone diagnostics, not
   verdicts, and toggling happens at run boundaries. *)
let on = ref false

let enabled () = !on

let set_enabled v = on := v

let nbuckets = 64

(* Bucket 0: x <= 1 (and the never-arising negatives/NaN).  Bucket i:
   2^(i-1) < x <= 2^i.  The last bucket absorbs the tail. *)
let bucket_of x =
  if not (x > 1.0) then 0
  else begin
    let rec go ub i = if x <= ub || i = nbuckets - 1 then i else go (ub *. 2.0) (i + 1) in
    go 2.0 1
  end

let upper_bound i = if i = 0 then 1.0 else Float.ldexp 1.0 i

let rec atomic_add_float a x =
  let c = Atomic.get a in
  if not (Atomic.compare_and_set a c (c +. x)) then atomic_add_float a x

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let create name = { name; v = Atomic.make 0 }

  let incr c = if !on then Atomic.incr c.v

  let add c k = if !on then ignore (Atomic.fetch_and_add c.v k)

  let value c = Atomic.get c.v

  let reset c = Atomic.set c.v 0

  (* filled in below, after the registry *)
  let make_ref : (string -> t) ref = ref (fun _ -> assert false)

  let make name = !make_ref name
end

module Histogram = struct
  type t = {
    name : string;
    counts : int Atomic.t array;
    total : int Atomic.t;
    sum : float Atomic.t;
  }

  let create name =
    {
      name;
      counts = Array.init nbuckets (fun _ -> Atomic.make 0);
      total = Atomic.make 0;
      sum = Atomic.make 0.0;
    }

  let observe h x =
    if !on then begin
      Atomic.incr h.total;
      atomic_add_float h.sum x;
      Atomic.incr h.counts.(bucket_of x)
    end

  let count h = Atomic.get h.total

  let sum h = Atomic.get h.sum

  let buckets h =
    let acc = ref [] in
    for i = nbuckets - 1 downto 0 do
      let c = Atomic.get h.counts.(i) in
      if c > 0 then acc := (upper_bound i, c) :: !acc
    done;
    !acc

  let reset h =
    Array.iter (fun a -> Atomic.set a 0) h.counts;
    Atomic.set h.total 0;
    Atomic.set h.sum 0.0

  let make_ref : (string -> t) ref = ref (fun _ -> assert false)

  let make name = !make_ref name
end

(* Registry: metric declaration happens at module-initialization time
   (and occasionally from tests), so a mutex is fine; the recording hot
   path never touches it. *)

let registry_lock = Mutex.create ()

let counters : (string, Counter.t) Hashtbl.t = Hashtbl.create 64

let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 64

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let () =
  Counter.make_ref :=
    (fun name ->
      with_registry (fun () ->
          match Hashtbl.find_opt counters name with
          | Some c -> c
          | None ->
            let c = Counter.create name in
            Hashtbl.add counters name c;
            c));
  Histogram.make_ref :=
    (fun name ->
      with_registry (fun () ->
          match Hashtbl.find_opt histograms name with
          | Some h -> h
          | None ->
            let h = Histogram.create name in
            Hashtbl.add histograms name h;
            h))

let find_counter name = with_registry (fun () -> Hashtbl.find_opt counters name)

let find_histogram name = with_registry (fun () -> Hashtbl.find_opt histograms name)

type histogram_snapshot = {
  hcount : int;
  hsum : float;
  hbuckets : (float * int) list;
}

type snapshot = {
  counters : (string * int) list;
  histograms : (string * histogram_snapshot) list;
}

let by_name (a, _) (b, _) = Stdlib.compare a b

let snapshot () =
  with_registry (fun () ->
      let cs =
        Hashtbl.fold (fun name c acc -> (name, Counter.value c) :: acc) counters []
      in
      let hs =
        Hashtbl.fold
          (fun name h acc ->
            ( name,
              {
                hcount = Histogram.count h;
                hsum = Histogram.sum h;
                hbuckets = Histogram.buckets h;
              } )
            :: acc)
          histograms []
      in
      { counters = List.sort by_name cs; histograms = List.sort by_name hs })

let merge_assoc merge_values xs ys =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) xs;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | None -> Hashtbl.replace tbl k v
      | Some v0 -> Hashtbl.replace tbl k (merge_values v0 v))
    ys;
  List.sort by_name (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let merge_hist a b =
  {
    hcount = a.hcount + b.hcount;
    hsum = a.hsum +. b.hsum;
    hbuckets = merge_assoc ( + ) a.hbuckets b.hbuckets;
  }

let merge a b =
  {
    counters = merge_assoc ( + ) a.counters b.counters;
    histograms = merge_assoc merge_hist a.histograms b.histograms;
  }

let reset () =
  with_registry (fun () ->
      Hashtbl.iter (fun _ c -> Counter.reset c) counters;
      Hashtbl.iter (fun _ h -> Histogram.reset h) histograms)

type t =
  | Seq
  | Par of { domains : int option }

let seq = Seq

let par ?domains () = Par { domains }

(* 0 = no override: fall back to the hardware-recommended count. *)
let override = Atomic.make 0

let set_default_domains = function
  | None -> Atomic.set override 0
  | Some d ->
    if d < 1 then invalid_arg "Exec.set_default_domains";
    Atomic.set override d

let default_domains () =
  let o = Atomic.get override in
  if o > 0 then o
  else
    (* Leave one hardware thread for the orchestrating domain (the CLI
       main loop, the serve daemon's accept/connection threads): a pool
       that takes every core starves the producer feeding it. *)
    max 1 (Domain.recommended_domain_count () - 1)

let domain_count = function
  | Seq -> 1
  | Par { domains = Some d } -> max 1 d
  | Par { domains = None } -> default_domains ()

(* The one domain loop.  [domains] workers — the caller and
   [domains - 1] spawned domains — claim the next index from a shared
   counter and run [work] on it, until the indices run out or [stop] is
   set.  Every index below [n] runs at most once, and exactly once
   unless [stop] is set.  The caller spawns every other domain before
   it claims an index, so a slow first index never delays the start of
   the others (as computing it alone ahead of the spawns would).  A raising
   [work] sets [stop]; every domain is joined before the first
   exception is re-raised.  So is a failing spawn (past the
   runtime's domain limit): [stop] is set, the domains already spawned
   are joined, and the spawn's exception is re-raised, so no worker
   outlives the call.  On one domain the indices run in order on the
   caller. *)
let loop ~domains ~stop n work =
  let next = Atomic.make 0 in
  let rec claim () =
    if not (Atomic.get stop) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        work i;
        claim ()
      end
    end
  in
  let worker () =
    try claim ()
    with e ->
      Atomic.set stop true;
      raise e
  in
  let outcome d =
    match d () with () -> None | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  let spawned = ref [] in
  let join_spawned () =
    List.rev_map (fun h -> outcome (fun () -> Domain.join h)) !spawned
  in
  (try
     for _ = 2 to domains do
       spawned := Domain.spawn worker :: !spawned
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Atomic.set stop true;
     ignore (join_spawned ());
     Printexc.raise_with_backtrace e bt);
  let first = outcome worker in
  match List.find_map Fun.id (first :: join_spawned ()) with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let workers exec n = min (domain_count exec) n

let init ~exec n f =
  if n < 0 then invalid_arg "Exec.init";
  let domains = workers exec n in
  if domains <= 1 then Array.init n f
  else begin
    let cells = Array.make n None in
    loop ~domains ~stop:(Atomic.make false) n (fun i -> cells.(i) <- Some (f i));
    Array.map Option.get cells
  end

let for_all ~exec n pred =
  if n < 0 then invalid_arg "Exec.for_all";
  let failed = Atomic.make false in
  loop ~domains:(max 1 (workers exec n)) ~stop:failed n (fun i ->
      if not (pred i) then Atomic.set failed true);
  not (Atomic.get failed)

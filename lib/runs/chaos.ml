exception Injected_crash of string

let () =
  Printexc.register_printer (function
    | Injected_crash key -> Some (Printf.sprintf "Chaos.Injected_crash(%s)" key)
    | _ -> None)

type fault =
  | Crash
  | Delay of float
  | Corrupt_result

type plan = {
  seed : int;
  crash_p : float;
  delay_p : float;
  delay_s : float;
  corrupt_p : float;
  fault_attempts : int;
}

let plan ?(crash_p = 0.) ?(delay_p = 0.) ?(delay_s = 0.05) ?(corrupt_p = 0.)
    ?(fault_attempts = 1) ~seed () =
  if crash_p < 0. || delay_p < 0. || corrupt_p < 0. then
    invalid_arg "Chaos.plan: negative probability";
  { seed; crash_p; delay_p; delay_s; corrupt_p; fault_attempts }

(* FNV-1a over "seed;key;attempt", folded to a uniform draw in [0,1).
   Purely functional: the same (plan, key, attempt) always draws the same
   number, on every domain, in every process. *)
let draw_u ~salt ~seed ~key ~attempt =
  let fnv_offset = 0xcbf29ce484222325L and fnv_prime = 0x100000001b3L in
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    (Printf.sprintf "%s%d;%s;%d" salt seed key attempt);
  (* Top 53 bits -> [0,1). *)
  Int64.to_float (Int64.shift_right_logical !h 11) /. 9007199254740992.0

let draw plan ~key ~attempt = draw_u ~salt:"" ~seed:plan.seed ~key ~attempt

let decide plan ~key ~attempt =
  if attempt > plan.fault_attempts then None
  else begin
    let u = draw plan ~key ~attempt in
    if u < plan.crash_p then Some Crash
    else if u < plan.crash_p +. plan.delay_p then Some (Delay plan.delay_s)
    else if u < plan.crash_p +. plan.delay_p +. plan.corrupt_p then Some Corrupt_result
    else None
  end

let wrap plan ~key ?(corrupt = fun r -> r) exec =
  (* Attempt numbers live here, not in the scheduler: the wrapper must
     see the same attempt the retry loop is on.  Mutex-protected — the
     scheduler executes from several domains. *)
  let attempts = Hashtbl.create 16 in
  let lock = Mutex.create () in
  fun job ->
    let k = key job in
    let attempt =
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          let a = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts k) in
          Hashtbl.replace attempts k a;
          a)
    in
    match decide plan ~key:k ~attempt with
    | Some Crash -> raise (Injected_crash k)
    | Some (Delay s) ->
      Unix.sleepf s;
      exec job
    | Some Corrupt_result -> corrupt (exec job)
    | None -> exec job

(* --- process-level faults ------------------------------------------------ *)

type process_fault =
  | Kill
  | Hang of float
  | Garbage

type process_plan = {
  pseed : int;
  kill_p : float;
  hang_p : float;
  hang_s : float;
  garbage_p : float;
  pfault_attempts : int;
}

let process_plan ?(kill_p = 0.) ?(hang_p = 0.) ?(hang_s = 5.0) ?(garbage_p = 0.)
    ?(fault_attempts = 1) ~seed () =
  if kill_p < 0. || hang_p < 0. || garbage_p < 0. then
    invalid_arg "Chaos.process_plan: negative probability";
  { pseed = seed; kill_p; hang_p; hang_s; garbage_p; pfault_attempts = fault_attempts }

(* Salted differently from [decide] so a seed shared between an
   in-process plan and a process plan does not correlate their faults. *)
let decide_process plan ~key ~attempt =
  if attempt > plan.pfault_attempts then None
  else begin
    let u = draw_u ~salt:"proc;" ~seed:plan.pseed ~key ~attempt in
    if u < plan.kill_p then Some Kill
    else if u < plan.kill_p +. plan.hang_p then Some (Hang plan.hang_s)
    else if u < plan.kill_p +. plan.hang_p +. plan.garbage_p then Some Garbage
    else None
  end

(* --- journal corruption ------------------------------------------------- *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Split into lines, remembering whether the file ended in a newline. *)
let lines_of path =
  let s = read_all path in
  let s = if String.length s > 0 && s.[String.length s - 1] = '\n' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  if s = "" then [] else String.split_on_char '\n' s

let unlines ls = String.concat "\n" ls ^ "\n"

let truncate_last_line path =
  match List.rev (lines_of path) with
  | [] -> ()
  | last :: rev_rest ->
    let cut = String.length last / 2 in
    let torn = String.sub last 0 cut in
    (* No trailing newline: the append died mid-write. *)
    write_all path (String.concat "\n" (List.rev (torn :: rev_rest)))

let append_garbage_line path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc "{\"job\": \x01garbage \xff not json\n")

let interleave_partial_writes path =
  match List.rev (lines_of path) with
  | a :: b :: rev_rest ->
    (* Two writers raced: each line's first half landed, torn together. *)
    let half s = String.sub s 0 (String.length s / 2) in
    write_all path (unlines (List.rev ((half b ^ half a) :: rev_rest)))
  | _ -> ()

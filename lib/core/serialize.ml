module Gncg_error = Gncg_util.Gncg_error

let ( let* ) = Result.bind

let float_to_string x =
  if x = Float.infinity then "inf" else Printf.sprintf "%.17g" x

let host_to_string host =
  let n = Host.n host in
  let buf = Buffer.create (16 * n * n) in
  Buffer.add_string buf "gncg-host 1\n";
  Buffer.add_string buf (Printf.sprintf "n %d\n" n);
  Buffer.add_string buf (Printf.sprintf "alpha %s\n" (float_to_string (Host.alpha host)));
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let w = Host.weight host u v in
      if Float.is_finite w then
        Buffer.add_string buf (Printf.sprintf "w %d %d %s\n" u v (float_to_string w))
    done
  done;
  Buffer.contents buf

let profile_to_string s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "gncg-profile 1\n";
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Strategy.n s));
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "buy %d %d\n" u v))
    (Strategy.owned_edges s);
  Buffer.contents buf

(* --- result-returning parsers ------------------------------------------ *)

(* Lines keep their 1-based number; tokens keep their 1-based column
   within the (right-trimmed) line, so every rejection is located. *)
let lines_of s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let fields l =
  let n = String.length l in
  let rec go i acc =
    if i >= n then List.rev acc
    else if l.[i] = ' ' then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && l.[!j] <> ' ' do
        incr j
      done;
      go !j ((i + 1, String.sub l i (!j - i)) :: acc)
    end
  in
  go 0 []

let perr ~context ?where fmt = Gncg_error.failf ?where ~context Gncg_error.Parse fmt

let float_of_token ~context line (col, tok) =
  match tok with
  | "inf" -> Ok Float.infinity
  | _ -> (
    match float_of_string_opt tok with
    | Some x -> Ok x
    | None ->
      perr ~context ~where:(Gncg_error.Line_column (line, col)) "bad number %S" tok)

let expect_header ~context lines magic =
  match lines with
  | (ln, first) :: rest -> (
    match fields first with
    | [ (_, m); (_, "1") ] when m = magic -> Ok rest
    | _ -> perr ~context ~where:(Gncg_error.Line ln) "expected %S header" magic)
  | [] -> perr ~context "empty input"

let parse_n ~context lines =
  match lines with
  | (ln, l) :: rest -> (
    match fields l with
    | [ (_, "n"); (col, v) ] -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok (n, rest)
      | _ -> perr ~context ~where:(Gncg_error.Line_column (ln, col)) "bad size %S" v)
    | _ -> perr ~context ~where:(Gncg_error.Line ln) "expected a size line")
  | [] -> perr ~context "missing size"

let host_of_string_result s =
  let context = "Serialize.host_of_string_result" in
  let* lines = expect_header ~context (lines_of s) "gncg-host" in
  let* n, lines = parse_n ~context lines in
  let* alpha, lines =
    match lines with
    | (ln, l) :: rest -> (
      match fields l with
      | [ (_, "alpha"); tok ] ->
        let* a = float_of_token ~context ln tok in
        let* () =
          if Float.is_nan a then
            Gncg_error.fail ~where:(Gncg_error.Line ln) ~context Gncg_error.Not_finite
              "alpha is NaN"
          else if a <= 0.0 || a = Float.infinity then
            Gncg_error.failf ~where:(Gncg_error.Line ln) ~context Gncg_error.Negative
              "alpha %g must be positive and finite" a
          else Ok ()
        in
        Ok (a, rest)
      | _ -> perr ~context ~where:(Gncg_error.Line ln) "expected an alpha line")
    | [] -> perr ~context "missing alpha"
  in
  let w = Array.make_matrix n n Float.infinity in
  for i = 0 to n - 1 do
    w.(i).(i) <- 0.0
  done;
  let* () =
    List.fold_left
      (fun acc (ln, l) ->
        let* () = acc in
        match fields l with
        | [ (_, "w"); (_, u); (_, v); tok ] -> (
          match (int_of_string_opt u, int_of_string_opt v) with
          | Some u, Some v when u >= 0 && v >= 0 && u < n && v < n && u <> v ->
            let* x = float_of_token ~context ln tok in
            let* () =
              if Float.is_nan x then
                Gncg_error.fail
                  ~where:(Gncg_error.Line ln)
                  ~context Gncg_error.Not_finite "NaN weight"
              else if x < 0.0 then
                Gncg_error.failf
                  ~where:(Gncg_error.Line ln)
                  ~context Gncg_error.Negative "weight %g < 0" x
              else Ok ()
            in
            w.(u).(v) <- x;
            w.(v).(u) <- x;
            Ok ()
          | _ -> perr ~context ~where:(Gncg_error.Line ln) "bad pair %S %S" u v)
        | _ -> perr ~context ~where:(Gncg_error.Line ln) "unexpected line: %s" l)
      (Ok ()) lines
  in
  let host = Host.make ~alpha (Gncg_metric.Metric.of_matrix w) in
  (* Loads must accept every family the format stores, including the
     non-metric general and 1-∞ hosts: validate weights sanity and
     finite-path connectivity, not the triangle inequality. *)
  let* () = Host.validate ~require_metric:false host in
  Ok host

let profile_of_string_result str =
  let context = "Serialize.profile_of_string_result" in
  let* lines = expect_header ~context (lines_of str) "gncg-profile" in
  let* n, lines = parse_n ~context lines in
  List.fold_left
    (fun acc (ln, l) ->
      let* s = acc in
      match fields l with
      | [ (_, "buy"); (_, u); (_, v) ] -> (
        match (int_of_string_opt u, int_of_string_opt v) with
        | Some u, Some v when u >= 0 && v >= 0 && u < n && v < n && u <> v ->
          Ok (Strategy.buy s u v)
        | _ -> perr ~context ~where:(Gncg_error.Line ln) "bad purchase %S %S" u v)
      | (_, "buy") :: _ ->
        perr ~context ~where:(Gncg_error.Line ln) "truncated purchase: %s" l
      | _ -> perr ~context ~where:(Gncg_error.Line ln) "unexpected line: %s" l)
    (Ok (Strategy.empty n)) lines

(* --- files -------------------------------------------------------------- *)

let write_file path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_file_result ~context path =
  match read_file path with
  | s -> Ok s
  | exception Sys_error msg ->
    Gncg_error.fail ~where:(Gncg_error.File path) ~context Gncg_error.Io msg

let host_of_file_result path =
  let* s = read_file_result ~context:"Serialize.host_of_file_result" path in
  Result.map_error (Gncg_error.in_file path) (host_of_string_result s)

let profile_of_file_result path =
  let* s = read_file_result ~context:"Serialize.profile_of_file_result" path in
  Result.map_error (Gncg_error.in_file path) (profile_of_string_result s)

let host_to_file path host = write_file path (host_to_string host)

let profile_to_file path s = write_file path (profile_to_string s)

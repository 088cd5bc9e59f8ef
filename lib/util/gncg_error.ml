type kind =
  | Parse
  | Io
  | Bounds
  | Not_finite
  | Negative
  | Asymmetric
  | Triangle
  | Disconnected
  | Inconsistent
  | Corrupt
  | Internal

type location =
  | Nowhere
  | Line of int
  | Line_column of int * int
  | Vertex of int
  | Pair of int * int
  | Triple of int * int * int
  | File of string
  | File_line of string * int

type t = {
  kind : kind;
  where : location;
  context : string;
  message : string;
}

exception Error of t

let v ?(where = Nowhere) ~context kind message = { kind; where; context; message }

let fail ?where ~context kind message = Stdlib.Error (v ?where ~context kind message)

let failf ?where ~context kind fmt =
  Printf.ksprintf (fun message -> fail ?where ~context kind message) fmt

let raise_ e = raise (Error e)

let unreachable ~context message = raise_ (v ~context Internal message)

let in_file path e =
  let where =
    match e.where with
    | Line n | Line_column (n, _) -> File_line (path, n)
    | Nowhere -> File path
    | w -> w
  in
  { e with where }

let kind_to_string = function
  | Parse -> "parse error"
  | Io -> "io error"
  | Bounds -> "out of bounds"
  | Not_finite -> "non-finite value"
  | Negative -> "negative value"
  | Asymmetric -> "asymmetric weights"
  | Triangle -> "triangle violation"
  | Disconnected -> "disconnected"
  | Inconsistent -> "inconsistent state"
  | Corrupt -> "corrupt artifact"
  | Internal -> "internal error"

let location_to_string = function
  | Nowhere -> ""
  | Line n -> Printf.sprintf "line %d" n
  | Line_column (l, c) -> Printf.sprintf "line %d, column %d" l c
  | Vertex u -> Printf.sprintf "vertex %d" u
  | Pair (u, v) -> Printf.sprintf "pair (%d,%d)" u v
  | Triple (u, v, x) -> Printf.sprintf "triple (%d,%d) via %d" u v x
  | File p -> Printf.sprintf "file %S" p
  | File_line (p, n) -> Printf.sprintf "%s, line %d" p n

(* --- wire encoding ----------------------------------------------------- *)

(* Machine-readable slugs, one per constructor; unlike [kind_to_string]
   (a display form) these are a wire contract: the serve protocol ships
   them across the socket and [kind_of_string] must invert exactly. *)
let kind_to_wire = function
  | Parse -> "parse"
  | Io -> "io"
  | Bounds -> "bounds"
  | Not_finite -> "not-finite"
  | Negative -> "negative"
  | Asymmetric -> "asymmetric"
  | Triangle -> "triangle"
  | Disconnected -> "disconnected"
  | Inconsistent -> "inconsistent"
  | Corrupt -> "corrupt"
  | Internal -> "internal"

let all_kinds =
  [ Parse; Io; Bounds; Not_finite; Negative; Asymmetric; Triangle; Disconnected;
    Inconsistent; Corrupt; Internal ]

let kind_of_wire s =
  match List.find_opt (fun k -> kind_to_wire k = s) all_kinds with
  | Some k -> Ok k
  | None -> Stdlib.Error (Printf.sprintf "unknown error kind %S" s)

(* Locations as one compact string.  Free-form file paths go *last* so a
   path containing ':' cannot confuse the parse (the numeric fields are
   all in front of it). *)
let location_to_wire = function
  | Nowhere -> ""
  | Line n -> Printf.sprintf "line:%d" n
  | Line_column (l, c) -> Printf.sprintf "line:%d:%d" l c
  | Vertex u -> Printf.sprintf "vertex:%d" u
  | Pair (u, v) -> Printf.sprintf "pair:%d:%d" u v
  | Triple (u, v, x) -> Printf.sprintf "triple:%d:%d:%d" u v x
  | File p -> "file:" ^ p
  | File_line (p, n) -> Printf.sprintf "file-line:%d:%s" n p

let location_of_wire s =
  let bad () = Stdlib.Error (Printf.sprintf "unparseable location %S" s) in
  let int_of x = int_of_string_opt x in
  if s = "" then Ok Nowhere
  else
    match String.index_opt s ':' with
    | None -> bad ()
    | Some i -> (
      let tag = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let ints expected =
        let parts = String.split_on_char ':' rest in
        if List.length parts <> expected then None
        else
          let parsed = List.filter_map int_of parts in
          if List.length parsed = expected then Some parsed else None
      in
      match tag with
      | "line" -> (
        match ints 1 with
        | Some [ n ] -> Ok (Line n)
        | _ -> (
          match ints 2 with
          | Some [ l; c ] -> Ok (Line_column (l, c))
          | _ -> bad ()))
      | "vertex" -> (
        match ints 1 with Some [ u ] -> Ok (Vertex u) | _ -> bad ())
      | "pair" -> (
        match ints 2 with Some [ u; v ] -> Ok (Pair (u, v)) | _ -> bad ())
      | "triple" -> (
        match ints 3 with
        | Some [ u; v; x ] -> Ok (Triple (u, v, x))
        | _ -> bad ())
      | "file" -> Ok (File rest)
      | "file-line" -> (
        match String.index_opt rest ':' with
        | None -> bad ()
        | Some j -> (
          match int_of (String.sub rest 0 j) with
          | Some n ->
            Ok (File_line (String.sub rest (j + 1) (String.length rest - j - 1), n))
          | None -> bad ()))
      | _ -> bad ())

let to_wire e =
  [
    ("kind", kind_to_wire e.kind);
    ("context", e.context);
    ("message", e.message);
    ("where", location_to_wire e.where);
  ]

let of_wire fields =
  let get k = List.assoc_opt k fields in
  match get "kind" with
  | None -> Stdlib.Error "missing \"kind\" field"
  | Some ks -> (
    match kind_of_wire ks with
    | Stdlib.Error _ as e -> e
    | Ok kind -> (
      let context = Option.value ~default:"" (get "context") in
      let message = Option.value ~default:"" (get "message") in
      match location_of_wire (Option.value ~default:"" (get "where")) with
      | Stdlib.Error _ as e -> e
      | Ok where -> Ok { kind; where; context; message }))

let to_string e =
  let loc = location_to_string e.where in
  if loc = "" then Printf.sprintf "%s: %s: %s" e.context (kind_to_string e.kind) e.message
  else
    Printf.sprintf "%s: %s at %s: %s" e.context (kind_to_string e.kind) loc e.message

(* Printexc integration: an escaped [Error _] prints its structured
   rendering instead of the bare constructor. *)
let () =
  Printexc.register_printer (function
    | Error e -> Some ("Gncg_error.Error: " ^ to_string e)
    | _ -> None)

let strict = ref false

let set_strict_validation v = strict := v

let strict_validation () = !strict

(** Structured errors for the engine's trust boundaries.

    Every place the engine accepts data it did not compute itself — a
    serialized host, a journal line, a random-model parameterization, a
    caller-supplied metric — classifies failures with this one type
    instead of a bare [Failure _] string: a {e kind} (what invariant
    broke), a {e location} (where in the input), and a {e context} (which
    API boundary rejected it).  Boundaries expose [result]-returning
    entry points.

    The module lives in [lib/util] so every layer (metric, graph, core,
    runs) can agree on the type without new dependencies. *)

type kind =
  | Parse  (** malformed textual input *)
  | Io  (** file-system failure while reading or writing *)
  | Bounds  (** an index or size out of range *)
  | Not_finite  (** NaN or infinity where a finite number is required *)
  | Negative  (** a negative (or non-positive) weight, price, or size *)
  | Asymmetric  (** [w(u,v) <> w(v,u)] in a supposedly symmetric host *)
  | Triangle  (** a triangle-inequality violation in a metric host *)
  | Disconnected  (** a host or built network with unreachable agents *)
  | Inconsistent  (** strategy/ownership state that contradicts itself *)
  | Corrupt  (** a journal or artifact that fails integrity checks *)
  | Internal  (** a supposedly unreachable state; always a bug *)

type location =
  | Nowhere
  | Line of int  (** 1-based line of a textual input *)
  | Line_column of int * int  (** 1-based line and column *)
  | Vertex of int
  | Pair of int * int
  | Triple of int * int * int  (** the violating triangle [(u, v, via)] *)
  | File of string
  | File_line of string * int

type t = {
  kind : kind;
  where : location;
  context : string;  (** the rejecting boundary, e.g. ["Serialize.host_of_string"] *)
  message : string;
}

exception Error of t

val v : ?where:location -> context:string -> kind -> string -> t

val fail : ?where:location -> context:string -> kind -> string -> ('a, t) result
(** [Result.error] of {!v}. *)

val failf :
  ?where:location ->
  context:string ->
  kind ->
  ('fmt, unit, string, ('a, t) result) format4 ->
  'fmt

val unreachable : context:string -> string -> 'a
(** Raises an {!Internal} error: the typed replacement for
    [assert false] on paths the surrounding invariants rule out. *)

val in_file : string -> t -> t
(** Attaches a file path to an error's location: [Line n] and
    [Line_column (n, _)] become [File_line (path, n)], [Nowhere] becomes
    [File path]; locations that already carry structure are kept. *)

val to_string : t -> string
(** One line: [context: kind[ at location]: message]. *)

(** {1 Wire encoding}

    A flat, codec-agnostic key/value form for shipping errors across a
    process boundary (the serve protocol renders it as a JSON object).
    Unlike the display strings above, these are an exact round-trip
    contract: [of_wire (to_wire e) = Ok e] for every [e]. *)

val to_wire : t -> (string * string) list
(** [[("kind", _); ("context", _); ("message", _); ("where", _)]]. *)

val of_wire : (string * string) list -> (t, string) result
(** Tolerant of missing [context]/[message]/[where] (defaulted empty);
    [kind] is required. *)

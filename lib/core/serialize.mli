(** Plain-text serialization of game instances and strategy profiles.

    The format is line-oriented and stable, so experiment artifacts can be
    saved, diffed and replayed:

    {v
    gncg-host 1
    n 4
    alpha 2.5
    w 0 1 1.5
    w 0 2 inf
    ...
    v}

    Every finite pair appears once ([u < v]); omitted pairs default to
    [inf].  Profiles:

    {v
    gncg-profile 1
    n 4
    buy 0 2
    buy 3 1
    v}

    The [_result] parsers reject malformed input with a typed
    {!Gncg_util.Gncg_error.t} locating the offending line (and column,
    for bad numbers). *)

val host_to_string : Host.t -> string

val host_of_string_result : string -> (Host.t, Gncg_util.Gncg_error.t) result
(** Parses a host, then checks it through [Host.validate
    ~require_metric:false]: weight sanity and finite-path connectivity.
    The triangle inequality is not required because the format
    legitimately stores the non-metric general and 1-∞ families. *)

val profile_to_string : Strategy.t -> string

val profile_of_string_result : string -> (Strategy.t, Gncg_util.Gncg_error.t) result

val host_to_file : string -> Host.t -> unit

val host_of_file_result : string -> (Host.t, Gncg_util.Gncg_error.t) result
(** {!host_of_string_result} on the file's contents; errors carry the
    path in their location. *)

val profile_to_file : string -> Strategy.t -> unit

val profile_of_file_result : string -> (Strategy.t, Gncg_util.Gncg_error.t) result

(** Execution strategy and the one domain loop.

    Every scan that can fan out across OCaml domains takes
    [?exec:Exec.t]: [Seq] is the sequential code path (deterministic
    evaluation order, useful under a debugger and for bit-exact float
    sums), [Par] spreads the index space over OCaml domains.  Both
    combinators run on one loop: the calling domain and [D - 1] spawned
    ones claim the next index from a shared atomic counter until the
    indices run out, so an idle domain always takes the next index and
    no static split can leave one domain holding the slow ones.  The
    runs scheduler ({!Gncg_runs.Scheduler}) uses the same loop for its
    jobs.  [Par { domains = None }] uses {!default_domains}, which
    [--domains] sets. *)

type t =
  | Seq
  | Par of { domains : int option }

val seq : t

val par : ?domains:int -> unit -> t

val default_domains : unit -> int
(** The process-wide override when set (see {!set_default_domains}),
    otherwise [Domain.recommended_domain_count () - 1] (never below 1):
    one hardware thread is left for the orchestrating domain — the CLI
    main loop or the serve daemon's connection threads. *)

val set_default_domains : int option -> unit
(** Overrides the process-wide default domain count used by
    [Par { domains = None }] ([None] resets to the hardware default).
    Backs the [--domains] flag of the CLI and the reproduction
    harness. *)

val domain_count : t -> int
(** [Seq] → 1; [Par { domains = Some d }] → [max 1 d];
    [Par { domains = None }] → {!default_domains}[ ()]. *)

(** {1 Combinators}

    On one domain ([Seq], or a [Par] count of 1) they are the plain
    sequential [Array.init] / left-to-right scan.  On more, the function
    runs concurrently: it must be safe to call from several domains at
    once on distinct indices, and may only read shared structures.  An
    exception raised by it stops the other domains at their next claim
    and is re-raised once all have been joined.  So is the [Failure]
    raised by a spawn past the runtime's domain limit: the domains
    already spawned are stopped and joined first, so none outlives the
    call. *)

val init : exec:t -> int -> (int -> 'a) -> 'a array
(** [init ~exec n f] is [Array.init n f]; each index runs exactly once,
    on at most [min (domain_count exec) n] domains. *)

val for_all : exec:t -> int -> (int -> bool) -> bool
(** [for_all ~exec n pred] is [pred 0 && ... && pred (n-1)] with an
    early exit: once any domain finds a counterexample the others stop
    before their next index.  On more than one domain the set of
    evaluated indices depends on the schedule, so [pred] must be pure.
    Powers the parallel equilibrium scans. *)

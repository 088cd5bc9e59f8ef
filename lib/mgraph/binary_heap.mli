(** Indexed binary min-heap over the vertex ids [0 .. capacity-1] with float
    priorities and decrease-key, the classic Dijkstra workhorse. *)

type t

val create : int -> t
(** [create capacity] makes an empty heap able to hold each id once. *)

val insert : t -> int -> float -> unit
(** Raises [Invalid_argument] if the id is already present. *)

val decrease : t -> int -> float -> unit
(** [decrease h id p] lowers [id]'s priority to [p]; raises
    [Invalid_argument] if absent or if [p] is larger than the current
    priority. *)

val insert_or_decrease : t -> int -> float -> unit
(** Inserts the id, or decreases its key if the new priority is lower;
    no-op when the stored priority is already <= the new one. *)

val pop_min : t -> (int * float) option
(** Removes and returns the minimum-priority entry. *)

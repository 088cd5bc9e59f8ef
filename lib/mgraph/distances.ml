(* The DISTANCES seam: every engine layer above mgraph reads distances
   through this first-class-module dispatch instead of a concrete
   matrix, so the storage can be a dense floatarray (the historic
   default) or an implicit oracle that never materializes O(n²) floats
   at all.

   First-class modules rather than a functor: the dispatch cost is one
   indirect call per operation — and every operation here is O(n) or
   worse except [distance], so the seam stays off the profile — while
   keeping the backend a runtime value that Host/Instances/CLI can
   select. *)

module Metric = Gncg_obs.Metric

let c_packs = Metric.Counter.make "distances.packs"

exception Unsupported of string

let unsupported backend op =
  raise
    (Unsupported
       (Printf.sprintf
          "Distances: the %s backend is read-only and does not support %s \
           (use a dense backend for mutating dynamics)"
          backend op))

module type S = sig
  type t

  val id : string
  val is_mutable : bool
  val n : t -> int
  val graph : t -> Wgraph.t option
  val distance : t -> int -> int -> float
  val row_into : t -> int -> float array -> unit
  val dist_sum : t -> int -> float
  val dist_sum_with_edge : t -> int -> int -> float -> float
  val dist_sums_with_edges : t -> int -> int array -> float array -> int -> float array -> unit
  val min_sum_against : t -> float array -> int -> float -> float
  val nearest : t -> accept:(int -> bool) -> int -> (int * float) option
  val add_edge : t -> int -> int -> float -> Changed_rows.t
  val remove_edge : t -> int -> int -> Changed_rows.t

  val sssp_edited_into :
    t -> ?remove:int * int -> ?add:int * int * float -> int -> float array -> unit

  val sssp_edited_sum : t -> ?remove:int * int -> ?add:int * int * float -> int -> float
  val copy : t -> t
  val set_selfcheck : t -> int -> unit
  val selfcheck_cadence : t -> int
  val selfcheck_now : t -> bool
  val inject_cell_error : t -> int -> int -> float -> unit
  val memory_bytes : t -> int
end

type t = Packed : (module S with type t = 'a) * 'a -> t

(* --- backend adapters --------------------------------------------------- *)

(* The batched insertion sum for oracles with no faster form: one
   single-target kernel call per target. *)
let each_sum_with_edge dist_sum_with_edge t u targets weights k out =
  if k < 0 || k > Array.length targets || k > Array.length weights || k > Array.length out
  then invalid_arg "Distances.dist_sums_with_edges: arrays shorter than k";
  for i = 0 to k - 1 do
    out.(i) <- dist_sum_with_edge t u targets.(i) weights.(i)
  done

module Dense_backend = struct
  type t = Incr_apsp.t

  let id = "dense"
  let is_mutable = true
  let n = Incr_apsp.n
  let graph t = Some (Incr_apsp.graph t)
  let distance = Incr_apsp.distance
  let row_into = Incr_apsp.row_into
  let dist_sum = Incr_apsp.dist_sum
  let dist_sum_with_edge = Incr_apsp.dist_sum_with_edge
  let dist_sums_with_edges = Incr_apsp.dist_sums_with_edges
  let min_sum_against = Incr_apsp.min_sum_against
  let nearest _ ~accept:_ _ = None
  let add_edge = Incr_apsp.add_edge
  let remove_edge = Incr_apsp.remove_edge
  let sssp_edited_into = Incr_apsp.sssp_edited_into
  let sssp_edited_sum = Incr_apsp.sssp_edited_sum
  let copy = Incr_apsp.copy
  let set_selfcheck = Incr_apsp.set_selfcheck
  let selfcheck_cadence = Incr_apsp.selfcheck_cadence
  let selfcheck_now = Incr_apsp.selfcheck_now
  let inject_cell_error = Incr_apsp.inject_cell_error
  let memory_bytes t = 8 * Incr_apsp.n t * Incr_apsp.n t
end

module Tree_backend = struct
  type t = Tree_dist.t

  let id = "tree"
  let is_mutable = false
  let n = Tree_dist.n
  let graph t = Some (Tree_dist.graph t)
  let distance = Tree_dist.distance
  let row_into = Tree_dist.row_into
  let dist_sum = Tree_dist.dist_sum
  let dist_sum_with_edge = Tree_dist.dist_sum_with_edge
  let dist_sums_with_edges = each_sum_with_edge Tree_dist.dist_sum_with_edge
  let min_sum_against = Tree_dist.min_sum_against
  let nearest _ ~accept:_ _ = None
  let add_edge _ _ _ _ = unsupported id "add_edge"
  let remove_edge _ _ _ = unsupported id "remove_edge"
  let sssp_edited_into = Tree_dist.sssp_edited_into
  let sssp_edited_sum = Tree_dist.sssp_edited_sum
  let copy t = Tree_dist.of_tree (Tree_dist.graph t)
  let set_selfcheck = Tree_dist.set_selfcheck
  let selfcheck_cadence = Tree_dist.selfcheck_cadence
  let selfcheck_now = Tree_dist.selfcheck_now
  let inject_cell_error = Tree_dist.inject_cell_error
  let memory_bytes = Tree_dist.memory_bytes
end

module Rd_backend = struct
  type t = Rd_dist.t

  let id = "rd"
  let is_mutable = false
  let n = Rd_dist.n
  let graph _ = None
  let distance = Rd_dist.distance
  let row_into = Rd_dist.row_into
  let dist_sum = Rd_dist.dist_sum
  let dist_sum_with_edge = Rd_dist.dist_sum_with_edge
  let dist_sums_with_edges = each_sum_with_edge Rd_dist.dist_sum_with_edge
  let min_sum_against = Rd_dist.min_sum_against
  let nearest t ~accept u = Rd_dist.nearest t ~accept u
  let add_edge _ _ _ _ = unsupported id "add_edge"
  let remove_edge _ _ _ = unsupported id "remove_edge"
  let sssp_edited_into = Rd_dist.sssp_edited_into
  let sssp_edited_sum = Rd_dist.sssp_edited_sum

  let copy t =
    let n = Rd_dist.n t in
    let d = Rd_dist.dim t in
    let flat = Array.make (n * d) 0.0 in
    for i = 0 to n - 1 do
      Array.blit (Rd_dist.point t i) 0 flat (i * d) d
    done;
    Rd_dist.make (Rd_dist.norm t) ~flat ~d

  let set_selfcheck = Rd_dist.set_selfcheck
  let selfcheck_cadence = Rd_dist.selfcheck_cadence
  let selfcheck_now = Rd_dist.selfcheck_now
  let inject_cell_error = Rd_dist.inject_cell_error
  let memory_bytes = Rd_dist.memory_bytes
end

(* --- constructors ------------------------------------------------------- *)

let pack (type a) (module M : S with type t = a) (x : a) =
  Metric.Counter.incr c_packs;
  Packed ((module M), x)

let of_incr e = pack (module Dense_backend) e
let of_tree_dist e = pack (module Tree_backend) e
let of_rd_dist e = pack (module Rd_backend) e
let dense g = of_incr (Incr_apsp.of_graph_no_copy g)
let tree g = of_tree_dist (Tree_dist.of_tree_no_copy g)
let rd norm pts = of_rd_dist (Rd_dist.of_points norm pts)
let rd_flat norm ~flat ~d = of_rd_dist (Rd_dist.make norm ~flat ~d)

(* --- dispatch ----------------------------------------------------------- *)

let backend_id (Packed ((module M), _)) = M.id
let is_mutable (Packed ((module M), _)) = M.is_mutable
let n (Packed ((module M), x)) = M.n x
let graph (Packed ((module M), x)) = M.graph x
let distance (Packed ((module M), x)) u v = M.distance x u v
let row_into (Packed ((module M), x)) u dst = M.row_into x u dst

let row t u =
  let dst = Array.make (n t) Float.infinity in
  row_into t u dst;
  dst

let matrix t = Array.init (n t) (fun u -> row t u)
let dist_sum (Packed ((module M), x)) u = M.dist_sum x u
let dist_sum_with_edge (Packed ((module M), x)) u v w = M.dist_sum_with_edge x u v w

let dist_sums_with_edges (Packed ((module M), x)) u targets weights k out =
  M.dist_sums_with_edges x u targets weights k out

let min_sum_against (Packed ((module M), x)) r v w = M.min_sum_against x r v w

let nearest (Packed ((module M), x)) ?(accept = fun _ -> true) u =
  M.nearest x ~accept u

let add_edge (Packed ((module M), x)) u v w = M.add_edge x u v w
let remove_edge (Packed ((module M), x)) u v = M.remove_edge x u v

let sssp_edited_into (Packed ((module M), x)) ?remove ?add s dst =
  M.sssp_edited_into x ?remove ?add s dst

let sssp_edited_sum (Packed ((module M), x)) ?remove ?add s =
  M.sssp_edited_sum x ?remove ?add s

let sssp_edited t ?remove ?add s =
  let dst = Array.make (n t) Float.infinity in
  sssp_edited_into t ?remove ?add s dst;
  dst

let copy (Packed ((module M), x)) = Packed ((module M), M.copy x)
let set_selfcheck (Packed ((module M), x)) c = M.set_selfcheck x c
let selfcheck_cadence (Packed ((module M), x)) = M.selfcheck_cadence x
let selfcheck_now (Packed ((module M), x)) = M.selfcheck_now x
let inject_cell_error (Packed ((module M), x)) u v delta = M.inject_cell_error x u v delta
let memory_bytes (Packed ((module M), x)) = M.memory_bytes x

(* --- backend selection -------------------------------------------------- *)

type spec = Auto | Dense | Tree | Rd

let spec_to_string = function
  | Auto -> "auto"
  | Dense -> "dense"
  | Tree -> "tree"
  | Rd -> "rd"

let spec_of_string s =
  match s with
  | "auto" -> Ok Auto
  | "dense" -> Ok Dense
  | "tree" -> Ok Tree
  | "rd" -> Ok Rd
  | _ -> Error (Printf.sprintf "unknown distance backend %S (auto | dense | tree | rd)" s)

(* Process-wide default applied where no explicit spec is given — how the
   CLI's [--dist-backend] reaches internally constructed states (mirrors
   Incr_apsp.set_default_selfcheck). *)
let default_spec_ref = ref Auto
let set_default_spec s = default_spec_ref := s
let default_spec () = !default_spec_ref

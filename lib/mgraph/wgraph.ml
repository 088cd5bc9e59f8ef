type t = { adj : (int, float) Hashtbl.t array; mutable m : int }

let create n =
  if n < 0 then invalid_arg "Wgraph.create: negative size";
  { adj = Array.init n (fun _ -> Hashtbl.create 4); m = 0 }

let n g = Array.length g.adj

let m g = g.m

let check_vertex g u name =
  if u < 0 || u >= n g then invalid_arg (Printf.sprintf "Wgraph.%s: vertex %d out of range" name u)

let has_edge g u v =
  check_vertex g u "has_edge";
  check_vertex g v "has_edge";
  Hashtbl.mem g.adj.(u) v

let add_edge g u v w =
  check_vertex g u "add_edge";
  check_vertex g v "add_edge";
  if u = v then invalid_arg "Wgraph.add_edge: self-loop";
  if w < 0.0 || Float.is_nan w then invalid_arg "Wgraph.add_edge: negative weight";
  if not (Hashtbl.mem g.adj.(u) v) then g.m <- g.m + 1;
  Hashtbl.replace g.adj.(u) v w;
  Hashtbl.replace g.adj.(v) u w

let remove_edge g u v =
  check_vertex g u "remove_edge";
  check_vertex g v "remove_edge";
  if Hashtbl.mem g.adj.(u) v then begin
    Hashtbl.remove g.adj.(u) v;
    Hashtbl.remove g.adj.(v) u;
    g.m <- g.m - 1
  end

let weight g u v =
  check_vertex g u "weight";
  check_vertex g v "weight";
  Hashtbl.find_opt g.adj.(u) v

let neighbors g u =
  check_vertex g u "neighbors";
  Hashtbl.fold (fun v w acc -> (v, w) :: acc) g.adj.(u) []

let iter_neighbors g u f =
  check_vertex g u "iter_neighbors";
  Hashtbl.iter f g.adj.(u)

let degree g u =
  check_vertex g u "degree";
  Hashtbl.length g.adj.(u)

let iter_edges g f =
  Array.iteri
    (fun u tbl -> Hashtbl.iter (fun v w -> if u < v then f u v w) tbl)
    g.adj

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v w -> acc := (u, v, w) :: !acc);
  !acc

let total_weight g =
  let acc = ref 0.0 in
  iter_edges g (fun _ _ w -> acc := !acc +. w);
  !acc

let copy g = { adj = Array.map Hashtbl.copy g.adj; m = g.m }

let of_edges size es =
  let g = create size in
  List.iter (fun (u, v, w) -> add_edge g u v w) es;
  g

let equal a b =
  n a = n b && m a = m b
  && begin
       let ok = ref true in
       iter_edges a (fun u v w ->
           match weight b u v with
           | Some w' when w' = w -> ()
           | _ -> ok := false);
       !ok
     end

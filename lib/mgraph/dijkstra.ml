let run ?(limit = Float.infinity) g s =
  let n = Wgraph.n g in
  if s < 0 || s >= n then invalid_arg "Dijkstra: source out of range";
  let dist = Array.make n Float.infinity in
  let heap = Binary_heap.create n in
  dist.(s) <- 0.0;
  Binary_heap.insert heap s 0.0;
  let rec loop () =
    match Binary_heap.pop_min heap with
    | None -> ()
    | Some (u, du) ->
      if du <= limit then begin
        Wgraph.iter_neighbors g u (fun v w ->
            let dv = du +. w in
            if dv < dist.(v) then begin
              dist.(v) <- dv;
              Binary_heap.insert_or_decrease heap v dv
            end);
        loop ()
      end
      else
        (* Every remaining vertex is farther than [limit]: mark it
           unreachable-within-limit by resetting its tentative distance. *)
        let rec drain () =
          match Binary_heap.pop_min heap with
          | None -> ()
          | Some (v, _) ->
            dist.(v) <- Float.infinity;
            drain ()
        in
        dist.(u) <- Float.infinity;
        drain ()
  in
  loop ();
  dist

let sssp g s = run g s

let sssp_bounded g s limit = run ~limit g s

let apsp g = Array.init (Wgraph.n g) (fun s -> sssp g s)

let diameter g =
  let ecc u = Gncg_util.Flt.max_array (sssp g u) in
  if Wgraph.n g <= 1 then 0.0 else Gncg_util.Flt.max_array (Array.init (Wgraph.n g) ecc)

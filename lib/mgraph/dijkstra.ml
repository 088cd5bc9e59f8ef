let run ?(limit = Float.infinity) g s =
  let n = Wgraph.n g in
  if s < 0 || s >= n then invalid_arg "Dijkstra: source out of range";
  let dist = Array.make n Float.infinity in
  let parent = Array.make n (-1) in
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
              parent.(v) <- u;
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
            parent.(v) <- -1;
            drain ()
        in
        dist.(u) <- Float.infinity;
        parent.(u) <- -1;
        drain ()
  in
  loop ();
  (dist, parent)

let sssp g s = fst (run g s)

let sssp_bounded g s limit = fst (run ~limit g s)

let apsp g = Array.init (Wgraph.n g) (fun s -> sssp g s)

let path g u v =
  let dist, parent = run g u in
  if dist.(v) = Float.infinity then None
  else begin
    let rec build acc x = if x = u then u :: acc else build (x :: acc) parent.(x) in
    Some (build [] v)
  end

let diameter g =
  let ecc u = Gncg_util.Flt.max_array (sssp g u) in
  if Wgraph.n g <= 1 then 0.0 else Gncg_util.Flt.max_array (Array.init (Wgraph.n g) ecc)

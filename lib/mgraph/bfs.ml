let hops g s =
  let n = Wgraph.n g in
  if s < 0 || s >= n then invalid_arg "Bfs.hops: source out of range";
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(s) <- 0;
  Queue.push s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Wgraph.iter_neighbors g u (fun v _ ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
  done;
  dist

let component g s =
  let d = hops g s in
  let order = ref [] in
  Array.iteri (fun v dv -> if dv >= 0 then order := (dv, v) :: !order) d;
  !order |> List.sort compare |> List.map snd

let components g =
  let n = Wgraph.n g in
  let seen = Array.make n false in
  let comps = ref [] in
  for s = 0 to n - 1 do
    if not seen.(s) then begin
      let comp = Bfs.component g s in
      List.iter (fun v -> seen.(v) <- true) comp;
      comps := comp :: !comps
    end
  done;
  List.rev !comps

let component_count g = List.length (components g)

let is_connected g = Wgraph.n g <= 1 || component_count g = 1

let is_tree g = is_connected g && Wgraph.m g = Wgraph.n g - 1

let of_graph g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph \"G\" {\n";
  for v = 0 to Wgraph.n g - 1 do
    Buffer.add_string buf (Printf.sprintf "  %d [label=\"%d\"];\n" v v)
  done;
  Wgraph.iter_edges g (fun u v w ->
      Buffer.add_string buf (Printf.sprintf "  %d -- %d [label=\"%g\"];\n" u v w));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (of_graph g))

module Prng = Gncg_util.Prng

let random_tree rng ~n ~wmin ~wmax =
  if n < 1 then invalid_arg "Generators.random_tree";
  let g = Wgraph.create n in
  for v = 1 to n - 1 do
    Wgraph.add_edge g v (Prng.int rng v) (Prng.float_in rng wmin wmax)
  done;
  g

let gnp rng ~n ~p ~wmin ~wmax =
  let g = Wgraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.coin rng p then Wgraph.add_edge g u v (Prng.float_in rng wmin wmax)
    done
  done;
  g

let gnp_connected rng ~n ~p ~wmin ~wmax =
  let g = gnp rng ~n ~p ~wmin ~wmax in
  let order = Prng.permutation rng n in
  for i = 1 to n - 1 do
    let u = order.(i) and v = order.(Prng.int rng i) in
    if not (Wgraph.has_edge g u v) then
      Wgraph.add_edge g u v (Prng.float_in rng wmin wmax)
  done;
  g

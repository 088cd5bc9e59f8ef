let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty sample"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let now_ns () = Unix.gettimeofday () *. 1e9

let eps = 1e-9

(* |x| when x is finite, else 0: an infinite tolerance would make every
   finite cost equal to +inf.  [x -. x] is 0 exactly when x is finite.
   Inlined, so that the comparisons below allocate no float. *)
let[@inline] magnitude x = if x -. x = 0.0 then Float.abs x else 0.0

let[@inline] tol a b =
  let a = magnitude a and b = magnitude b in
  eps *. if b > a then b else a

let[@inline] given_or_tol t a b = match t with Some t -> t | None -> tol a b

let approx_eq ?tol:t a b =
  (* Equal infinities compare equal (their difference would be NaN). *)
  a = b || Float.abs (a -. b) <= given_or_tol t a b

let lt ?tol:t a b = a < b -. given_or_tol t a b

let le ?tol:t a b = a <= b +. given_or_tol t a b

(* The rounding model of stored distances (docs/ALGORITHMS.md, "Rounding
   model").  Both margins associate left to right, as the inlined copies
   in the kernels do, so a copy returns these bits. *)
let stored_margin n (mag : float) = 8.0 *. float_of_int n *. epsilon_float *. mag

let sum_margin k (mag : float) = 2.0 *. float_of_int k *. epsilon_float *. mag

let stored_eq n (a : float) b =
  a = b
  || a < Float.infinity
     && b < Float.infinity
     &&
     let tol = stored_margin n (if b > a then b else a) in
     Float.abs (a -. b) <= if tol < eps then eps else tol

let max_array a =
  if Array.length a = 0 then invalid_arg "Flt.max_array: empty";
  let m = ref a.(0) in
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    if x > !m then m := x
  done;
  !m

let sum a =
  (* Kahan summation: distance costs add up thousands of terms and the
     equilibrium checks compare them at the game tolerance.  Infinite
     entries (disconnected agents) must propagate as infinity — the naive
     compensation would produce inf - inf = NaN.  Both passes are plain
     loops: [Array.exists] with a closure would box every element. *)
  let any_inf = ref false in
  for i = 0 to Array.length a - 1 do
    if Array.unsafe_get a i = Float.infinity then any_inf := true
  done;
  if !any_inf then Float.infinity
  else begin
    let s = ref 0.0 and c = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      let y = a.(i) -. !c in
      let t = !s +. y in
      c := t -. !s -. y;
      s := t
    done;
    !s
  end

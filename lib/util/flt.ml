let eps = 1e-9

let approx_eq ?(tol = eps) a b =
  (* Equal infinities compare equal (their difference would be NaN). *)
  a = b || Float.abs (a -. b) <= tol

let lt ?(tol = eps) a b = a < b -. tol

let le ?(tol = eps) a b = a <= b +. tol

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
     equilibrium checks compare them with a 1e-9 tolerance.  Infinite
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

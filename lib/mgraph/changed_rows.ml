type t = { bits : Bytes.t; n : int; mutable card : int }

let create n =
  if n < 0 then invalid_arg "Changed_rows.create: negative size";
  { bits = Bytes.make ((n + 7) / 8) '\000'; n; card = 0 }

let size t = t.n

let check t i name =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Changed_rows.%s: row %d out of range" name i)

let mem t i =
  check t i "mem";
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i "add";
  let byte = i lsr 3 in
  let bit = 1 lsl (i land 7) in
  let cur = Char.code (Bytes.unsafe_get t.bits byte) in
  if cur land bit = 0 then begin
    Bytes.unsafe_set t.bits byte (Char.unsafe_chr (cur lor bit));
    t.card <- t.card + 1
  end

let cardinal t = t.card

let iter f t =
  for i = 0 to t.n - 1 do
    if Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0 then f i
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let union_into ~dst src =
  if dst.n <> src.n then invalid_arg "Changed_rows.union_into: size mismatch";
  iter (fun i -> add dst i) src

type t = {
  ids : int array;          (* heap slots -> id *)
  prio : float array;       (* heap slots -> priority *)
  pos : int array;          (* id -> heap slot, or -1 *)
  mutable size : int;
}

let create capacity =
  if capacity < 0 then invalid_arg "Binary_heap.create";
  {
    ids = Array.make (max capacity 1) (-1);
    prio = Array.make (max capacity 1) 0.0;
    pos = Array.make (max capacity 1) (-1);
    size = 0;
  }

let mem h id = id >= 0 && id < Array.length h.pos && h.pos.(id) >= 0

let swap h i j =
  let idi = h.ids.(i) and idj = h.ids.(j) in
  h.ids.(i) <- idj;
  h.ids.(j) <- idi;
  let p = h.prio.(i) in
  h.prio.(i) <- h.prio.(j);
  h.prio.(j) <- p;
  h.pos.(idi) <- j;
  h.pos.(idj) <- i

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.prio.(i) < h.prio.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.prio.(l) < h.prio.(!smallest) then smallest := l;
  if r < h.size && h.prio.(r) < h.prio.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let insert h id p =
  if id < 0 || id >= Array.length h.pos then invalid_arg "Binary_heap.insert: id out of range";
  if h.pos.(id) >= 0 then invalid_arg "Binary_heap.insert: duplicate id";
  let i = h.size in
  h.ids.(i) <- id;
  h.prio.(i) <- p;
  h.pos.(id) <- i;
  h.size <- h.size + 1;
  sift_up h i

let decrease h id p =
  if not (mem h id) then invalid_arg "Binary_heap.decrease: absent id";
  let i = h.pos.(id) in
  if p > h.prio.(i) then invalid_arg "Binary_heap.decrease: priority increase";
  h.prio.(i) <- p;
  sift_up h i

let insert_or_decrease h id p =
  if mem h id then begin
    if p < h.prio.(h.pos.(id)) then decrease h id p
  end
  else insert h id p

let pop_min h =
  if h.size = 0 then None
  else begin
    let id = h.ids.(0) and p = h.prio.(0) in
    let last = h.size - 1 in
    swap h 0 last;
    h.size <- last;
    h.pos.(id) <- -1;
    if h.size > 0 then sift_down h 0;
    Some (id, p)
  end

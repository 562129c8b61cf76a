module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Elt : ORDERED) = struct
  type t = { mutable data : Elt.t array; mutable size : int }

  let create ?capacity:_ () = { data = [||]; size = 0 }

  let length t = t.size
  let is_empty t = t.size = 0

  let swap t i j =
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(j);
    t.data.(j) <- tmp

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if Elt.compare t.data.(i) t.data.(parent) < 0 then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && Elt.compare t.data.(l) t.data.(!smallest) < 0 then smallest := l;
    if r < t.size && Elt.compare t.data.(r) t.data.(!smallest) < 0 then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let grow t x =
    let cap = Array.length t.data in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else 2 * cap in
      let ndata = Array.make ncap x in
      Array.blit t.data 0 ndata 0 t.size;
      t.data <- ndata
    end

  let add t x =
    grow t x;
    t.data.(t.size) <- x;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop_min t =
    if t.size = 0 then None
    else begin
      let root = t.data.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.data.(0) <- t.data.(t.size);
        sift_down t 0
      end;
      Some root
    end

  let clear t = t.size <- 0
end

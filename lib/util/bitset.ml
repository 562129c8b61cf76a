type t = { words : Bytes.t; n : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  { words = Bytes.make ((n + 7) / 8) '\000'; n }

let capacity t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  let byte = Char.code (Bytes.get t.words (i / 8)) in
  Bytes.set t.words (i / 8) (Char.chr (byte lor (1 lsl (i mod 8))))

let mem t i =
  check t i;
  Char.code (Bytes.get t.words (i / 8)) land (1 lsl (i mod 8)) <> 0

let popcount_byte b =
  let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
  go b 0

let cardinal t =
  let total = ref 0 in
  Bytes.iter (fun c -> total := !total + popcount_byte (Char.code c)) t.words;
  !total

let is_empty t = cardinal t = 0
let clear t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'
let copy t = { words = Bytes.copy t.words; n = t.n }

let zip_words op a b =
  if a.n <> b.n then invalid_arg "Bitset: size mismatch";
  let out = create a.n in
  for i = 0 to Bytes.length a.words - 1 do
    Bytes.set out.words i
      (Char.chr (op (Char.code (Bytes.get a.words i)) (Char.code (Bytes.get b.words i))))
  done;
  out

let union = zip_words (lor)
let inter = zip_words (land)

let iter f t =
  for i = 0 to t.n - 1 do
    if mem t i then f i
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let of_list n l =
  let t = create n in
  List.iter (set t) l;
  t

let equal a b = a.n = b.n && Bytes.equal a.words b.words

let pp ppf t =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int (to_list t)))

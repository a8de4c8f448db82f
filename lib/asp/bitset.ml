type t = Bytes.t

let create n = Bytes.make ((n + 7) lsr 3) '\000'

let get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let clear b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get b j) land lnot (1 lsl (i land 7))))

let copy = Bytes.copy
let extend b n =
  let r = create n in
  Bytes.blit b 0 r 0 (Bytes.length b);
  r
let reset b = Bytes.fill b 0 (Bytes.length b) '\000'
let equal = Bytes.equal
let hash (b : t) = Hashtbl.hash b

let popcount_byte =
  (* 256-entry table beats bit tricks for byte-at-a-time scans *)
  let t = Array.make 256 0 in
  for i = 1 to 255 do
    t.(i) <- t.(i lsr 1) + (i land 1)
  done;
  t

let cardinal b =
  let n = ref 0 in
  for j = 0 to Bytes.length b - 1 do
    n := !n + popcount_byte.(Char.code (Bytes.unsafe_get b j))
  done;
  !n

let iter_true f b =
  for j = 0 to Bytes.length b - 1 do
    let c = Char.code (Bytes.unsafe_get b j) in
    if c <> 0 then
      for k = 0 to 7 do
        if c land (1 lsl k) <> 0 then f ((j lsl 3) lor k)
      done
  done

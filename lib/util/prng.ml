type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t = { state = mix (int64 t) }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit int, non-negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (int64 t) 1L = 1L
let byte t = Char.chr (int t 256)

(* [byte] per position, run on a local state the compiler keeps unboxed
   (no [int64] is allocated per byte) and stored back at the end. A
   byte is bits 2-9 of the output: [int]'s 62-bit value mod 256. *)
let fill_bytes t b =
  let s = ref t.state in
  for i = 0 to Bytes.length b - 1 do
    s := Int64.add !s golden;
    let v = Int64.to_int (Int64.shift_right_logical (mix !s) 2) in
    Bytes.unsafe_set b i (Char.unsafe_chr (v land 0xFF))
  done;
  t.state <- !s

let pick t xs =
  match xs with
  | [] -> invalid_arg "Prng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

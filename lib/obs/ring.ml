(* A plain circular buffer over an option array. [next] is the slot the
   next push writes; the oldest live item sits [len] slots behind it. *)

type 'a t = {
  cap : int;
  slots : 'a option array;
  mutable len : int;
  mutable next : int;
  mutable dropped : int;
}

let create cap =
  if cap < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { cap; slots = Array.make cap None; len = 0; next = 0; dropped = 0 }

let push t x =
  if t.len = t.cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.slots.(t.next) <- Some x;
  t.next <- (t.next + 1) mod t.cap

let length t = t.len
let dropped t = t.dropped

(* O(live items), not O(capacity): the fingerprinting executor clears a
   65536-slot trace ring between jobs that each push only a few hundred
   events — filling the whole array every time dominated the clear. *)
let clear t =
  if t.len > 0 then begin
    let start = (t.next - t.len + (2 * t.cap)) mod t.cap in
    let tail = min t.len (t.cap - start) in
    Array.fill t.slots start tail None;
    if tail < t.len then Array.fill t.slots 0 (t.len - tail) None
  end;
  t.len <- 0;
  t.next <- 0;
  t.dropped <- 0

let to_list t =
  let start = (t.next - t.len + (2 * t.cap)) mod t.cap in
  List.init t.len (fun i ->
      match t.slots.((start + i) mod t.cap) with
      | Some x -> x
      | None -> assert false)

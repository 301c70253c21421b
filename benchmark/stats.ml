let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* A line-for-line port of CPython's statistics.quantiles, method
   "exclusive", so spreads computed here match those computed from the
   same values in Python. *)
let quantiles ~n xs =
  let data = sorted xs in
  let ld = Array.length data in
  if ld = 0 then invalid_arg "Stats.quantiles: no data";
  if n < 1 then invalid_arg "Stats.quantiles: n < 1";
  if ld = 1 then List.init (n - 1) (fun _ -> data.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun i0 ->
        let i = i0 + 1 in
        let j = max 1 (min (m - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((data.(j - 1) *. float_of_int (n - delta))
        +. (data.(j) *. float_of_int delta))
        /. float_of_int n)

let median xs =
  let data = sorted xs in
  let ld = Array.length data in
  if ld = 0 then invalid_arg "Stats.median: no data";
  if ld mod 2 = 1 then data.(ld / 2)
  else (data.((ld / 2) - 1) +. data.(ld / 2)) /. 2.

let quartiles xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] -> (q1, median xs, q3)
  | _ -> assert false

let p90_min_samples = 100

type latency = { samples : int; p50 : float; p90 : float option }

let latency xs =
  let samples = List.length xs in
  let p90 =
    if samples < p90_min_samples then None
    else Some (List.nth (quantiles ~n:10 xs) 8)
  in
  { samples; p50 = median xs; p90 }

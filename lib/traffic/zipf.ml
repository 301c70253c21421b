(* Zipf-skewed sampling over a small universe. See zipf.mli.

   The one numerical subtlety: report byte-identity across machines
   forbids libm transcendentals (pow/exp/log are not required to be
   correctly rounded, so two glibc versions may disagree by an ulp and
   shift a cumulative-weight boundary). The skew exponent is therefore
   quantized to quarters and rank^theta computed with exact float
   multiplication plus IEEE-exact sqrt:

     rank^(m/4) = sqrt (sqrt (rank^m))

   rank^m is exact in a double for the universes this module serves
   (rank <= 2^13, m <= 8 covers theta in [0,2] with room to spare). *)

type t = {
  cum : float array; (* cumulative weights, cum.(n-1) = total *)
  theta_milli : int;
}

let quantize theta =
  let q = int_of_float ((theta *. 4.0) +. 0.5) in
  let q = if q < 0 then 0 else if q > 8 then 8 else q in
  q

(* rank^(q/4), computed exactly: integer power then two square roots. *)
let pow_quarter rank q =
  let x = float_of_int rank in
  let rec ipow b n = if n = 0 then 1.0 else b *. ipow b (n - 1) in
  sqrt (sqrt (ipow x q))

let create ~n ~theta =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  let q = quantize theta in
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. pow_quarter (i + 1) q);
    cum.(i) <- !total
  done;
  { cum; theta_milli = q * 250 }

let theta_milli t = t.theta_milli

let sample t prng =
  let n = Array.length t.cum in
  let u = Iron_util.Prng.float prng t.cum.(n - 1) in
  (* First index whose cumulative weight exceeds the draw. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

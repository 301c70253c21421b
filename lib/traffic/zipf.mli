(** Zipf-skewed working-set sampler.

    Rank [i] (0-based) is drawn with weight [1 / (i+1)^theta]; [theta =
    0] is uniform, larger values concentrate traffic on the first few
    ranks — the standard model for skewed file popularity.

    To keep reports byte-identical across machines the exponent is
    {e quantized to quarters} and evaluated with exact float
    multiplication plus IEEE-exact [sqrt] only — no libm [pow], whose
    last-ulp rounding may differ between platforms and shift a
    cumulative-weight boundary. *)

type t

val create : n:int -> theta:float -> t
(** A sampler over ranks [0 .. n-1]; [theta] is clamped to [0, 2] and
    quantized to the nearest quarter.
    @raise Invalid_argument if [n < 1]. *)

val sample : t -> Iron_util.Prng.t -> int
(** Draw one rank, consuming one PRNG draw. *)

val theta_milli : t -> int
(** The quantized exponent in thousandths (e.g. [750] for 0.75) — what
    reports echo. *)


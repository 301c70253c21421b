(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator — rotational latencies,
    corruption noise, workload file sizes — draws from an explicitly
    seeded [Prng.t], so an entire fingerprinting campaign or benchmark
    run replays bit-for-bit. *)

type t

val create : int -> t
(** [create seed] makes a generator; equal seeds give equal streams. *)

val split : t -> t
(** A statistically independent child generator. The parent advances by
    one draw; repeated splits from the same parent state differ. *)

val int64 : t -> int64
val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound); [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
val byte : t -> char

val fill_bytes : t -> bytes -> unit
(** [fill_bytes t b] writes exactly the bytes of [Bytes.length b] calls
    of {!byte}, in order, and leaves [t] in the state those calls leave
    it in: the draws that follow are the same. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

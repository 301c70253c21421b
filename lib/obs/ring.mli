(** Bounded ring buffer.

    The per-run evidence buffers of the observability layer ({!Obs}
    spans, the fault injector's I/O trace) must not grow without bound:
    a pathological workload under fault injection can issue millions of
    I/Os, and the fingerprinting engine runs hundreds of such jobs in
    one process. A ring keeps the {e newest} [capacity] items and
    counts what it had to drop, so a consumer can tell whether its
    window is complete.

    Not thread-safe on its own; callers that share a ring across
    domains must serialize pushes (as {!Obs} does). *)

type 'a t

val create : int -> 'a t
(** [create cap] is an empty ring holding at most [cap] items.
    @raise Invalid_argument if [cap < 1]. *)

val push : 'a t -> 'a -> unit
(** Append one item; when the ring is full the oldest item is evicted
    and the drop counter is bumped. *)

val length : 'a t -> int
(** Items currently held, [<= capacity]. *)

val dropped : 'a t -> int
(** Items evicted since creation (or the last {!clear}). [0] means
    {!to_list} is the complete history. *)

val clear : 'a t -> unit
(** Empty the ring and reset the drop counter. *)

val to_list : 'a t -> 'a list
(** Held items, oldest first. *)


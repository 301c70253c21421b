(** Per-domain pool of fixed-size byte buffers.

    Block-sized buffers (cache fills, journal images, a file system's
    private copies, scratch blocks) dominate the executor's allocation
    profile; pooling them avoids the major-heap churn of reallocating
    4 KiB buffers per operation. The calling domain's pool is the one
    source and sink of block buffers on the hot paths: the journal
    engine hands an image's buffer back when the image dies, and the
    block cache hands back every buffer it holds when its mount ends.

    Pools are only caches: [put] is a promise that nothing aliases the
    buffer anymore, and forgetting to [put] merely costs a future
    allocation. Never [put] a buffer that a caller may still read. *)

type t

val get : t -> bytes
(** A buffer of the pool's size with unspecified contents — the caller
    must overwrite it fully (or use {!get_zeroed} / {!copy}). *)

val get_zeroed : t -> bytes
(** Like {!get} but zero-filled, as [Bytes.make size '\000']. *)

val copy : t -> bytes -> bytes
(** [copy t data] is [Bytes.copy data] drawing the result from the pool
    when [data] is exactly the pool's size (fresh allocation otherwise). *)

val put : t -> bytes -> unit
(** Return a buffer to the pool. Buffers of the wrong size, or arriving
    when the pool already holds 4096, are dropped (safe, just not
    reused). *)

val scratch : t -> (bytes -> 'a) -> 'a
(** [scratch t f] is [f buf] for a buffer [buf] of the pool, with
    unspecified contents, which goes back to the pool when [f] returns.
    [f] must leave nothing pointing at [buf]: it decodes what it needs
    and hands [buf] only to calls that copy it, such as a device's
    [write]. If [f] raises, [buf] is dropped. *)

val block : int -> t
(** The calling domain's shared pool for [size]-byte buffers. Buffers
    must be returned on the same domain they were fetched from. *)

val zeros : int -> bytes
(** One all-zero block of [size] bytes, shared by every domain and
    every mount: what a hole reads as. It is read-only, like a borrowed
    buffer, and it never comes from or goes to a pool. *)

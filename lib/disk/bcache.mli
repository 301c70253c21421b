(** A simple write-through block cache (the FS-side page cache).

    The cache only lends: its one read, {!borrow}, serves the cached
    buffer itself, from memory when possible, and a caller that modifies
    what it read takes its own copy. Writes update the cached copy
    {e before} being issued to the device, so a failed device write
    leaves memory new and disk stale — the page-cache behaviour behind
    several of the paper's findings (e.g. ext3 silently ignoring write
    errors, §5.1).

    The cache evicts in FIFO order once [capacity] blocks are resident;
    since it is write-through, eviction never loses data. *)

type t

val create : ?capacity:int -> Dev.t -> t
(** Default capacity: 256 blocks. *)

val dev : t -> Dev.t
(** The underlying device, for uncached access. *)

val borrow : t -> int -> (bytes, Dev.error) result
(** The cached buffer itself, filled from the device on a miss (one
    cache-buffer allocation, none on a hit). It is read-only: the caller
    must never write to it. In return its bytes never change — eviction,
    a replacing {!write}, {!invalidate} and a refill of the same block
    all drop the cache's reference instead of reusing the buffer. *)

val peek : t -> int -> bytes option
(** Block [b]'s cached buffer if it is resident, with no device request
    and no hit or miss counted. Read-only, like {!borrow}'s. *)

val digest : t -> int -> bytes -> Iron_util.Sha1.t option
(** [digest t b buf] is the SHA-1 of [buf] when [buf] is physically
    block [b]'s current cache buffer: hashed on the first call and kept
    with the entry, so a later call costs a table lookup. Any other
    buffer — a copy of it, or a buffer the cache has dropped — gets
    [None]. Counts no hit or miss. *)

val write : t -> int -> bytes -> (unit, Dev.error) result
val sync : t -> (unit, Dev.error) result
val invalidate : t -> int -> unit
val invalidate_all : t -> unit

val hits : t -> int
val misses : t -> int

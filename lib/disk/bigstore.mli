(** Off-heap slab of fixed-size block slots, backed by [Bigarray].

    The simulated disk keeps the payloads of its dirty blocks here
    instead of in per-block [bytes] on the OCaml heap: a {!Memdisk}
    overlay draws one slot per dirty block. Slabs grow in coarse
    chunks, never move existing slots, and keep the payload bytes out
    of the GC's scanned heap.

    The API is bounds-checked — slot handles are validated against the
    slab's allocation map, and byte ranges against the slot size —
    while the copies underneath are raw [memcpy] stubs. Misuse (a
    stale or double-freed handle, an out-of-range blit) raises
    [Invalid_argument] rather than corrupting memory. *)

type t

val create : slot_size:int -> t
(** An empty slab of [slot_size]-byte slots. Storage is reserved in
    chunks of 256 slots as allocation demands; chunks are never
    released or moved. *)

val alloc : t -> int
(** A fresh slot handle with unspecified contents. *)

val free : t -> int -> unit
(** Release a slot for reuse. The handle must be live: freeing an
    unallocated or already-freed slot raises. *)

val read_into : t -> int -> bytes -> unit
(** [read_into t s buf] copies the whole slot into [buf], which must
    be exactly one slot long. *)

val copy_out : t -> int -> bytes
(** The slot's contents as fresh [bytes]. *)

val write : t -> int -> bytes -> unit
(** [write t s buf] overwrites the whole slot from [buf], which must
    be exactly one slot long. *)

val write_sub : t -> int -> bytes -> int -> unit
(** [write_sub t s buf len] overwrites the first [len] bytes of the
    slot from [buf]; [len] must fit both [buf] and the slot. *)

val live : t -> int
(** Number of currently allocated slots. *)

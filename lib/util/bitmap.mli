(** Allocation bitmaps: bit [i] is bit [i mod 8] of byte [i / 8]. Every
    brand's block, inode and record maps, and fsck's own marks, use
    this one layout. *)

val get : bytes -> int -> bool

val set : bytes -> int -> bool -> unit
(** [set buf i on] sets or clears bit [i], leaving the others alone. *)

val find_clear : ?from:int -> bytes -> int -> int option
(** [find_clear ~from buf limit] is the first clear bit in
    [\[from, limit)] ([from] defaults to 0), or [None]. A whole [0xFF]
    byte is stepped over at once. *)

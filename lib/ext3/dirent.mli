(** Directory-block codec: a packed sequence of [(ino, name)] records
    terminated by an ino of 0. Directory blocks carry no magic — the
    paper notes ext3 does no type checking on them (§5.1) — so decoding
    garbage yields garbage entries, exactly as on the real system. *)

val decode : bytes -> (string * int) list
(** Stops at the terminator, at the end of the block, or at the first
    structurally impossible record (a name length that overruns). *)

val encode : bytes -> (string * int) list -> bool
(** [encode buf entries] packs as many records as fit plus a
    terminator; returns [false] if not all entries fit ([buf] is left
    with those that did). *)

val fits : int -> (string * int) list -> bool
(** Would these entries (plus terminator) fit in a block of that size? *)

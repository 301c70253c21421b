(** Little-endian binary codecs over [bytes].

    All file-system on-disk structures in this repository are serialized
    with these primitives so that corruption injected at the byte level is
    observable exactly as it would be on a real disk. Readers raise
    {!Decode_error} on structurally impossible input (e.g. a string length
    that runs past the end of the block); higher layers translate that
    into their own sanity-check failure handling. *)

exception Decode_error of string

(** A cursor over a byte buffer, used for sequential reads. *)
type reader

val reader : ?pos:int -> bytes -> reader

val remaining : reader -> int
(** Bytes left between the cursor and the end of the buffer. *)

val get_u8 : reader -> int
val get_u16 : reader -> int
val get_u32 : reader -> int
(** 32-bit unsigned value; always fits in a 63-bit OCaml [int]. *)

val get_u64 : reader -> int64
val get_bytes : reader -> int -> bytes
val get_string : reader -> int -> string

(** A cursor for sequential writes. Writes past the end of the buffer
    raise {!Decode_error} (the buffer is a fixed-size disk block; growing
    it would be meaningless). *)
type writer

val writer : ?pos:int -> bytes -> writer
val writer_pos : writer -> int
val put_u8 : writer -> int -> unit
val put_u16 : writer -> int -> unit
val put_u32 : writer -> int -> unit
val put_u64 : writer -> int64 -> unit
val put_string : writer -> string -> unit

val read_u32 : bytes -> int -> int
(** [read_u32 buf off] reads a u32 at an absolute offset. *)

val write_u32 : bytes -> int -> int -> unit

(** SHA-1.

    ixt3 stores a SHA-1 digest per protected block (the paper's choice of
    checksum, §6.1). The implementation is the standard FIPS 180-1
    algorithm — streaming state and padding in OCaml, the 80-round
    compression in a C stub (the campaign's hottest pure-CPU loop); the
    test suite checks it against published vectors. *)

type t
(** A 20-byte digest. *)

val digest : ?off:int -> ?len:int -> bytes -> t
val digest_string : string -> t

val to_hex : t -> string
val to_raw : t -> string
(** 20 raw bytes, suitable for embedding in an on-disk structure. *)

val of_raw : string -> t
(** Inverse of {!to_raw}. Raises [Invalid_argument] if not 20 bytes. *)

val equal : t -> t -> bool

(** Incremental interface. *)
type ctx

val init : unit -> ctx
val feed : ctx -> ?off:int -> ?len:int -> bytes -> unit
val finalize : ctx -> t

(** Journal-record codecs (a scaled-down JBD).

    The journal occupies a fixed region: one journal superblock followed
    by log space. A transaction is [descriptor; journaled copies...;
    optional revoke; commit]. Every control block carries a magic and a
    sequence number, which is exactly the sanity checking real ext3
    performs on its journal (§5.1); journaled data blocks carry nothing,
    so their corruption is silent unless transactional checksums (§6.1)
    are enabled, in which case the commit block stores a SHA-1 over the
    transaction's copies.

    The block logs of the ext3 family, reiserfs and ntfs all lay their
    records out this way. They differ only in their magic numbers and
    in whether the log has revoke blocks, which a {!format} names. *)

type format = {
  jsuper_magic : int;
  desc_magic : int;
  commit_magic : int;
  revoke_magic : int option;  (** [None]: the log has no revoke blocks *)
}

val jbd : format
(** The ext3 family's log ("JSUP", "JDES", "JCOM", "JREV"). *)

type jsuper = {
  sequence : int;  (** sequence number of the oldest logged transaction *)
  start : int;  (** journal-region block where that transaction begins *)
}

val encode_jsuper : format -> jsuper -> bytes -> unit
val decode_jsuper : format -> bytes -> jsuper option

type desc = { seq : int; tags : int list  (** home block numbers *) }

val encode_desc : format -> desc -> bytes -> unit
val decode_desc : format -> bytes -> desc option

val max_tags : int -> int
(** [max_tags block_size] is the number of home-block tags one
    descriptor block can carry. *)

type commit = { cseq : int; checksum : string option  (** raw SHA-1 *) }

val encode_commit : format -> commit -> bytes -> unit
val decode_commit : format -> bytes -> commit option

type revoke = { rseq : int; revoked : int list }

val encode_revoke : format -> revoke -> bytes -> unit
(** Raises [Invalid_argument] when the format has no revoke blocks. *)

val decode_revoke : format -> bytes -> revoke option
(** [None] for every block when the format has no revoke blocks. *)

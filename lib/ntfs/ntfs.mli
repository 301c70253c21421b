(** A partial NTFS model (§5.4 — the paper's own analysis of NTFS is
    incomplete, as it is closed source; this model covers the block
    types of Table 4). The signature behaviours: {e persistence} —
    failed reads are retried up to seven times, failed data writes three
    times and MFT writes twice; strong magic-based sanity checks on MFT
    records and index blocks (metadata corruption makes the volume
    unmountable); errors reliably propagated; but, like ext3 and JFS, a
    failed data write is recorded and then never used. *)

val brand : Iron_vfs.Fs.brand

module Store : Iron_vfs.Posix.STORE
(** The store that {!brand} runs [Posix.Make] over. Its reads lend: the
    page [read_block] returns for a directory block is the open transaction's
    own image until a checkpoint, and the block cache's buffer after. *)

val log_format : Iron_jrnl.Jrec.format
(** The logfile's descriptor and commit magic numbers; the log has no
    revoke blocks and no superblock. *)

val classify : (int -> bytes) -> int -> string

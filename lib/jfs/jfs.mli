(** The IBM JFS model: record-level journaling, aggregate inodes, block
    and inode allocation maps with control pages — and the paper's
    "kitchen sink" failure policy (§5.3): error codes on reads with a
    single generic-layer retry, write errors ignored except for the
    journal superblock (which crashes the system), an alternate
    superblock used after a failed {e read} but not after a corrupt one,
    secondary aggregate-inode copies that are never used, a blank page
    returned when an internal tree block fails its sanity check, and a
    delete-path bug that ignores a read error outright. The redundant
    copies sit right next to their primaries, as the paper criticizes. *)

val brand : Iron_vfs.Fs.brand

module Store : Iron_vfs.Posix.STORE
(** The store that {!brand} runs [Posix.Make] over. Its reads lend: the
    page [read_block] returns for a directory block is the journal overlay's
    own image until a checkpoint, and the block cache's buffer after. *)

val classify : (int -> bytes) -> int -> string

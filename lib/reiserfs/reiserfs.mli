(** The ReiserFS (version 3) model: virtually all metadata in one
    balanced tree, and the paper's "first, do no harm" failure policy —
    heavy sanity checking of node headers, and a kernel panic on
    virtually any write failure (§5.2). The documented bugs are
    modelled too: ordered-data write failures are journalled over
    silently, indirect-item read failures during delete paths leak
    space, and journal replay performs no content checking. *)

val brand : Iron_vfs.Fs.brand

val journal_format : Iron_jrnl.Jrec.format
(** The journal's magic numbers; its log has no revoke blocks. *)

val classify : (int -> bytes) -> int -> string
(** Exposed for tests and the scrubbing/space tooling. *)

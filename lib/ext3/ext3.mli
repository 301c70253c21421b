(** The ext3 / ixt3 file system.

    One implementation serves both: a {!Profile.t} selects stock-ext3
    behaviour (write errors ignored, delete-path errors swallowed, the
    journal-commit bug, no IRON machinery) or any ixt3 variant
    (checksumming, metadata replication, data parity, transactional
    checksums — §6.1). Obtain a {!Iron_vfs.Fs.brand} with {!brand} and
    use it through the generic VFS interface: its ops are
    {!Iron_vfs.Posix.Make}'s, over an ext3 store. *)

val brand : Profile.t -> Iron_vfs.Fs.brand

val std : Iron_vfs.Fs.brand
(** Stock ext3. *)

val ixt3 : Iron_vfs.Fs.brand
(** ixt3 with every IRON feature enabled. *)

val layout_of_dev : Iron_disk.Dev.t -> Layout.t
(** The layout mkfs would use on this device (handy for tests and the
    scrubber). *)

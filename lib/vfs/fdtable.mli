(** A per-mount file-descriptor table, shared by all the file-system
    models. Descriptors are small ints starting at 3. *)

type 'a t

val create : unit -> 'a t
val alloc : 'a t -> 'a -> Fs.fd
val find : 'a t -> Fs.fd -> ('a, Errno.t) result
(** [Error EBADF] for unknown descriptors. *)

val close : 'a t -> Fs.fd -> (unit, Errno.t) result

(** The four Table-6 application workloads (§6.2), scaled to the
    simulated volume.

    - {b SSH-Build}: unpack a source tree, "configure", "compile" —
      reads of every source, object files written, a final link;
      a developer's day in miniature.
    - {b Web}: a read-intensive static server; a document set is
      published once, then served many times with a skewed popularity
      distribution.
    - {b PostMark}: the mail-server churn benchmark — a pool of small
      files hit with create/delete/read/append transactions.
    - {b TPC-B}: debit-credit: random in-place updates of an account
      file, each followed by fsync; synchronous, commit-latency-bound
      (where transactional checksums pay off).

    All draw randomness from an explicit {!Iron_util.Prng.t}: same seed,
    same I/O. *)

type t = {
  name : string;
  setup : Iron_vfs.Fs.boxed -> Iron_util.Prng.t -> (unit, Iron_vfs.Errno.t) result;
      (** Untimed preparation (publishing the document set, creating the
          account file, seeding the mail pool). *)
  run : Iron_vfs.Fs.boxed -> Iron_util.Prng.t -> (unit, Iron_vfs.Errno.t) result;
      (** The measured phase. *)
  cpu_ms : float;
      (** Non-I/O time of the measured phase (compilation for
          SSH-Build, request handling for the web server); the paper's
          SSH and web numbers are compute-dominated, which is exactly
          why their Table-6 overheads stay near 1.00. Disk-bound
          workloads (PostMark, TPC-B) carry 0 here. *)
}

val web : t
val postmark : t
val tpcb : t
val all : t list

val tpcb_batched : int -> t
(** TPC-B variant committing every [n] transactions, for the
    transactional-checksum ablation. *)

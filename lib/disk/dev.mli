(** The block-device interface seen by file systems.

    A device is a record of operations so that layers (fault injection,
    tracing) stack by wrapping: each layer forwards to the one below.
    This mirrors the paper's storage stack (Figure 1), where the fault
    injector is a pseudo-device driver interposed directly beneath the
    file system. *)

(** I/O errors a device can return. Silent corruption is deliberately
    {e not} an error: a corrupting device returns [Ok] with bad data. *)
type error =
  | Eio  (** the request failed (latent sector error, transport fault…) *)
  | Enxio  (** block number out of range *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type t = {
  block_size : int;
  num_blocks : int;
  read : int -> (bytes, error) result;
      (** [read b] returns a fresh buffer holding block [b]. *)
  read_into : int -> bytes -> (unit, error) result;
      (** [read_into b buf] fills the caller's [buf] (which must be
          exactly [block_size] bytes) with block [b] — the zero-copy
          read path. Same request as [read] in every other respect:
          layers above must fail, corrupt, count and trace it exactly
          as they would a [read] of the same block. On error the buffer
          contents are unspecified. *)
  write : int -> bytes -> (unit, error) result;
      (** [write b data] stores block [b]; [data] must be exactly
          [block_size] bytes. A device copies what it keeps, so [data]
          is the caller's again once the call returns: it may change
          the buffer or hand it back to an arena. Every layer keeps
          this: [Memdisk] copies into its slab, [Wlog] records a
          private copy, and the fault injector and {!observe} pass the
          buffer down. *)
  sync : unit -> (unit, error) result;
      (** Barrier: all previous writes are durable when this returns.
          On the simulated disk this charges the rotational wait that a
          real ordering point costs — the cost transactional checksums
          (§6.1) exist to avoid. *)
  now : unit -> float;  (** simulated time, milliseconds *)
}

val read_into_via_read :
  (int -> (bytes, error) result) -> int -> bytes -> (unit, error) result
(** Default shim for wrappers without a native zero-copy path: one
    [read] plus one blit into the caller's buffer. Use as
    [{ ... read_into = read_into_via_read my_read; ... }]. *)

val in_range : t -> int -> bool

val read_exn : t -> int -> bytes
(** Convenience for setup and test code; raises [Failure] on error. *)

val write_exn : t -> int -> bytes -> unit

val observe : Iron_obs.Obs.t -> t -> t
(** [observe obs dev] interposes the observability layer: every
    [read]/[read_into]/[write]/[sync] is counted into [obs] under
    [disk.read], [disk.write], [disk.sync] (with [.error] companions)
    and its simulated-time latency recorded into the matching [.ms]
    histogram. [read_into] counts as [disk.read] — the zero-copy path
    is metric-identical to the allocating one. Also installs [dev]'s
    clock as [obs]'s time source, so spans opened above this device
    carry simulated timestamps. Stacks like the fault injector;
    typically the outermost wrapper, directly beneath the file
    system. *)

(** Per-mount kernel-log capture.

    Each mounted file system owns a [Klog.t]; everything it would have
    [printk]'d goes here, and the fingerprinting engine inspects it as
    one of the three observable outputs (§4.3). [panic] models a kernel
    panic (ReiserFS's favourite recovery technique): it logs and raises
    {!Panic}, which the caller of the file-system operation — the
    "machine" — catches.

    Entries are timestamped with {e simulated} time: [create] takes the
    mounting device's clock (milliseconds), so the log lines up with
    the I/O trace and span buffer of the observability layer. With no
    clock, entries read [0.000] — fingerprinting campaigns run the
    disk's service-time model off, and their logs are deliberately
    time-free so output stays byte-stable. *)

type level = Info | Warning | Error

type entry = {
  time : float;  (** simulated ms when the entry was logged *)
  level : level;
  subsystem : string;
  message : string;
}

type t

exception Panic of string

val create : ?clock:(unit -> float) -> unit -> t
(** [create ~clock ()] stamps each entry with [clock ()]; pass the
    device's [Dev.now]. Default clock: constantly [0.0]. *)

val info : t -> string -> ('a, Format.formatter, unit, unit) format4 -> 'a
val warn : t -> string -> ('a, Format.formatter, unit, unit) format4 -> 'a
val error : t -> string -> ('a, Format.formatter, unit, unit) format4 -> 'a

val panic : t -> string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Logs at [Error] then raises {!Panic}. Never returns. *)

val entries : t -> entry list
(** Oldest first. *)

val errors : t -> entry list
val clear : t -> unit

val mentions : entry list -> string list -> bool
(** [mentions entries words]: some entry's message, lowercased,
    contains one of [words] (given in lowercase). The fingerprinter's
    inference and the crash checker's Tc detection both read the log
    this way. *)

val pp_entry : Format.formatter -> entry -> unit

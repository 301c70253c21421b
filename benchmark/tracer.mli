(** Per-layer wall-clock and allocation accounting, measured from outside
    the library.

    A traced run wraps every brand in {!Wrap}, which times the brand's
    VFS entry points and the block device handed to its [mkfs]/[mount],
    and wraps report encoding in {!report}. Each domain keeps its own
    accumulators and its own stack of open calls, so a layer's {e self}
    time is its inclusive time minus the time of the calls nested in it;
    the accumulators of every domain are merged by {!totals}. The first
    requests of a run can also be recorded as spans ({!begin_request}),
    written out as a Chrome trace by {!chrome_trace}. *)

type layer = int

val layer_names : string array
(** Indexed by layer: [vfs.mount], [vfs.sync], [vfs.read], [vfs.write],
    [vfs.ns], [vfs.admin], [dev.read], [dev.write], [dev.sync],
    [report]. *)

val vfs_mount : layer
val vfs_sync : layer
val vfs_read : layer
val vfs_write : layer
val vfs_ns : layer
val vfs_admin : layer
val dev_read : layer
val dev_write : layer
val dev_sync : layer
val report_layer : layer
val is_dev : layer -> bool
val is_vfs : layer -> bool

(** {1 Accumulators} *)

type acc
(** One domain's per-layer totals and stack of open calls. *)

val create_acc : unit -> acc
(** A private accumulator, not merged by {!totals}; for tests. *)

val push_at : acc -> layer -> t:float -> w:float -> unit
(** Open a call of [layer] at time [t] (seconds) with [w] words
    allocated so far. *)

val pop_at : acc -> failed:bool -> t:float -> w:float -> unit
(** Close the innermost open call. Its inclusive time and words are
    charged to the enclosing call as child time; its self time is the
    inclusive time minus its own children's. *)

type totals = {
  calls : int array;
  errors : int array;  (** calls that returned [Error] or raised *)
  self_s : float array;
  words : float array;  (** minor-heap words allocated, self *)
}

val acc_totals : acc -> totals

(** {1 Tracing the library} *)

val totals : unit -> totals
(** The sum of every domain's accumulators. Call it only while no
    other domain is inside a traced call (between requests). *)

val report : (unit -> 'a) -> 'a
(** [report f] runs [f] as a call of the [report] layer. Like the
    brand wrappers, it is used only by a traced run. *)

module Wrap (F : Iron_vfs.Fs.S) : Iron_vfs.Fs.S with type t = F.t
(** [F] with every entry point timed: [mount]; [fsync]/[sync]; [read];
    [write]; the namespace and metadata calls; and [mkfs], [unmount]
    and building the block classifier as [vfs.admin] (the classifier's
    per-block lookups are not timed). [mkfs] and [mount] hand [F] a
    device whose [read]/[read_into] (as [dev.read]), [write] and [sync]
    are timed. *)

val brand : Iron_vfs.Fs.brand -> Iron_vfs.Fs.brand
(** The brand of {!Wrap}. Build it once per brand: the fingerprinting
    engine caches prepared images by brand identity. *)

(** {1 Spans} *)

val begin_request : id:int -> unit
(** Record spans for request [id] until {!end_request}. Spans stop
    being recorded once 50 000 of them exist. *)

val end_request : label:string -> t0:float -> t1:float -> unit
(** Close the current request's root span. *)

val chrome_trace : unit -> string
(** Every recorded span as a Chrome trace_event document. Each VFS and
    report span carries its parent span, its request, and the count and
    time of the device calls made inside it. *)

val now : unit -> float
(** Wall-clock seconds. *)

(** Multi-tenant traffic simulation: thousands of simulated client
    sessions against one volume, with per-tenant blast-radius
    accounting.

    The load phase drives a mounted file system through the frozen VFS
    signature from a discrete-event scheduler keyed on simulated disk
    time: clients arrive by a Poisson process (von Neumann exponential
    sampling — uniform draws and comparisons only, no libm) or run a
    closed think-time loop, pick files from a Zipf-skewed per-tenant
    working set ({!Zipf}), and issue open/read/write/fsync/stat
    against a single FIFO disk server whose service times come from
    {!Iron_disk.Model}. The volume is a zero-default {!Iron_disk.Memdisk} image, so
    a multi-GiB logical device costs memory proportional to the blocks
    actually touched.

    The blast-radius phase re-runs a scaled-down slice of the same
    multi-tenant traffic through the crash explorer
    ({!Iron_crash.Explore}): per-tenant durable files are frozen into
    the base image, racing tenant writes are recorded with provenance
    tags, every enumerated crash state is checked against {e every}
    tenant's durable files, and each loss is attributed — victim from
    the lost path, culprit from the provenance of the earliest dropped
    write. ext3's shared journal lets one tenant's crash corrupt
    another's durable data; ixt3's transactional checksum refuses the
    garbage transaction instead.

    Everything is a pure function of the seed: reports are
    byte-identical across machines and worker counts. *)

type arrival = Poisson | Closed | Mixed
(** Open-loop arrivals, closed think-time loops, or (default) odd
    clients closed / even clients open. *)

val arrival_to_string : arrival -> string
val arrival_of_string : string -> arrival option

type config = {
  clients : int;  (** simulated client sessions *)
  tenants : int;  (** tenants; client [c] belongs to [c mod tenants] *)
  duration_ms : int;  (** simulated measurement window *)
  zipf : float;  (** working-set skew, quantized per {!Zipf} *)
  seed : int;
  num_blocks : int;  (** logical volume size in blocks *)
  files_per_tenant : int;
  arrival : arrival;
  think_ms : int;  (** closed-loop think time *)
  rate_hz : int;  (** open-loop offered load, ops/sim-sec, summed *)
  states : int;  (** crash-state budget for the blast-radius phase *)
}

val default : config
(** 1000 clients, 4 tenants, 10 sim-seconds, zipf 0.75, seed 42, a
    1 GiB volume (262144 blocks), mixed arrivals, 1000 crash states. *)

type tenant_stat = {
  ts_tenant : int;
  ts_ops : int;  (** load-phase ops issued by this tenant's clients *)
  ts_viol : int;  (** crash states that lost this tenant's durable data *)
  ts_cross : int;  (** of those, charged to another tenant's write *)
}

type report = {
  r_fs : string;
  r_clients : int;
  r_tenants : int;
  r_seed : int;
  r_zipf_milli : int;  (** quantized skew, thousandths *)
  r_arrival : string;
  r_duration_ms : int;
  r_num_blocks : int;
  r_ops : int;  (** ops whose arrival fell inside the window *)
  r_errors : int;  (** ops that returned an error *)
  r_ops_per_sim_sec : int;
  r_p50_us : int;  (** latency median, microseconds (bucket bound) *)
  r_p99_us : int;  (** latency p99, microseconds (bucket bound) *)
  r_op_counts : (string * int) list;  (** read/write/write+fsync/stat *)
  r_chunks_touched : int;  (** sparse chunks materialized *)
  r_blocks_touched : int;  (** blocks with non-zero content *)
  r_states : int;  (** crash states checked *)
  r_tc : int;  (** states where Tc refused a garbage transaction *)
  r_viol : int;  (** tenant-attributed durable losses, all states *)
  r_cross : int;  (** losses charged to another tenant's write *)
  r_mount_viol : int;  (** states with mount-level trouble *)
  r_tenant : tenant_stat list;
}

val run : ?jobs:int -> config -> Iron_vfs.Fs.brand -> report
(** Run both phases. The load phase is single-domain (inherently
    deterministic); [jobs] fans out only the blast-radius spec checks
    through {!Iron_util.Pool.map_jobs}, whose order-preserving slots
    keep the report byte-identical for any [jobs]. *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line console summary, one tenant per line. Byte-stable. *)

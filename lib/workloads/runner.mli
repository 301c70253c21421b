(** Timed execution of an application workload against one file-system
    brand: fresh simulated disk (service-time model on), mkfs + mount
    (untimed setup), run, unmount (timed — checkpoints are part of the
    cost), and report the simulated service time. *)

type stats = {
  elapsed_ms : float;  (** simulated disk time for run + unmount, plus the workload's modelled CPU time *)
  reads : int;
  writes : int;
  syncs : int;
}

val run :
  ?obs:Iron_obs.Obs.t ->
  ?seed:int ->
  Iron_vfs.Fs.brand ->
  Apps.t ->
  (stats, Iron_vfs.Errno.t) result
(** A 4096-block (16 MiB) volume; default seed 42. With [~obs] the
    device stack is wrapped in {!Iron_disk.Dev.observe} and the context
    is ambient for the whole run, so journal spans carry real simulated
    timestamps. *)

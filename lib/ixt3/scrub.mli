(** Disk scrubbing: eager detection (§3.2).

    The paper argues IRON file systems should pair lazy (on-access)
    detection with eager scans that discover latent sector errors and
    corruption before an application trips over them — valuable exactly
    when redundancy still exists to repair from. [run] scans an
    unmounted ixt3 volume:

    - every block is read once; read failures are latent sector errors;
    - blocks covered by checksums (per the volume's feature set) are
      verified; mismatches are silent corruption, discovered eagerly;
    - damaged metadata is repaired from its replica, damaged data from
      the file's parity group, where those features are enabled. *)

type report = {
  scanned : int;
  latent_errors : int;  (** unreadable blocks found *)
  corrupt : int;  (** checksum mismatches found *)
  repaired : int;  (** written back whole from replica or parity *)
  unrecoverable : int;  (** damage with no surviving redundancy *)
}

val pp_report : Format.formatter -> report -> unit

val run :
  Iron_ext3.Profile.t -> Iron_disk.Dev.t -> (report, Iron_vfs.Errno.t) result
(** Scrub the volume below [dev]. The profile says which redundancy the
    volume carries. The volume must not be mounted.

    Runs up to 3 sweeps, stopping early once a sweep repairs nothing:
    repairing one structure (say an inode-table block) can unlock the
    redundancy needed to repair another (a data block whose parity
    group that table describes). [latent_errors] and
    [corrupt] report the first sweep's discoveries; [repaired] is
    cumulative; [unrecoverable] is what the final sweep still could not
    fix. *)

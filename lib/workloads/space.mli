(** Space overheads of the ixt3 redundancy machinery (§6.2).

    The paper measured local volumes and computed the growth from
    metadata replication + checksums (3–10%) and from one parity block
    per user file (3–17%, depending on the volume's file-size mix). We
    populate volumes with three synthetic file-size profiles and compute
    the same two numbers from the resulting images. *)

type row = {
  profile : string;
  files : int;
  mean_file_kb : float;
  meta_pct : float;  (** checksums + replica machinery, % of used space *)
  parity_pct : float;  (** parity blocks, % of used space *)
}

val measure : unit -> row list
(** One ixt3 volume of 4096 blocks (16 MiB) per profile. *)

val pp : Format.formatter -> row list -> unit

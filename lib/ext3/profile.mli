(** Failure-policy and IRON-feature knobs.

    The same implementation serves stock ext3 (with the paper's
    documented bugs left in, §5.1) and the ixt3 family (§6). A profile
    chooses which behaviours are active; the 32 rows of Table 6 are the
    32 combinations of the five IRON feature bits. The journal commit
    policy ([mode]) selects among the paper's three ext3 journaling
    modes plus the Tc variant, and is handed to the shared journal core
    ({!Iron_jrnl.Jrnl}) at mount. *)

type t = {
  name : string;
  bugs_fixed : bool;
      (** The paper's stock-or-fixed choice. [false] keeps stock ext3's
          failure-handling bugs (§5.1): write error codes are dropped
          on the floor (DZero), so checkpoint and data writes fail
          silently and a failed journal write does not stop the commit
          block (the replay-corruption bug); truncate, rmdir and unlink
          swallow read errors and return success; unlink trusts
          links_count, so a corrupted count panics the kernel. [true]
          fixes all three, as ixt3 does (§6.2): the journal aborts,
          the errors propagate, and a zero count is [EUCLEAN]. *)
  mode : Iron_jrnl.Jrnl.mode;
      (** Commit policy: [Writeback], [Ordered] (the ext3 default),
          [Data_journal], or [Tc_checksummed] (ordered + the ixt3
          transactional checksum, §6.1). *)
  (* --- IRON features (§6.1) *)
  meta_checksum : bool;  (** Mc *)
  data_checksum : bool;  (** Dc *)
  meta_replica : bool;  (** Mr *)
  data_parity : bool;  (** Dp *)
  data_remap : bool;
      (** Rm — the taxonomy's RRemap (§3.3): a failed data-block write
          is retried at a freshly allocated location and the file's
          mapping updated. Not part of the paper's ixt3 prototype
          (Figure 3 shows no remap); offered as the extension the
          taxonomy calls for. *)
}

val ext3 : t
(** Stock ext3: bugs present, no IRON features, ordered mode. *)

val ixt3 : t
(** All IRON features on, all bugs fixed. *)

val ixt3_with :
  ?mc:bool -> ?mr:bool -> ?dc:bool -> ?dp:bool -> ?tc:bool -> ?rm:bool ->
  unit -> t
(** An ixt3 variant with chosen features (defaults: all off). Bug fixes
    are always applied: the paper notes that building ixt3 involved
    fixing ext3's failure-handling bugs (§6.2). [tc] selects
    [Tc_checksummed] mode; otherwise the variant runs ordered. *)

val tc : t -> bool
(** Whether the profile's mode carries the transactional checksum. *)

val variant_label : t -> string
(** E.g. ["Mc Mr Dp"]; ["(ext3)"] for the all-off baseline. *)

val any_iron : t -> bool

(** Text rendering of fingerprints: the Figure-2/3 matrices and the
    Table-5 technique summary. *)

val cell_symbols : which:[ `Detection | `Recovery ] -> Driver.cell -> string
(** The Figure-2 symbol string for one cell: ["."] when not applicable,
    ["o"] when applicable but the fault never triggered, otherwise the
    superimposed mechanism symbols ([" "] for an observed DZero/RZero).
    Exposed so the golden-artifact layer ({!Iron_report.Report}) renders
    cell-level diffs with the same vocabulary as the matrices. *)

val pp_report : Format.formatter -> Driver.report -> unit
(** The full Figure-2 block for one file system: detection and recovery
    grids for each fault kind, plus the key. In each grid, rows are
    block types and columns are workloads a–t; cell symbols follow the
    paper's key ({!Taxonomy.detection_symbol} /
    {!Taxonomy.recovery_symbol}), multiple observed mechanisms are
    superimposed left-to-right, ['.'] marks a gray (not-applicable)
    cell and ['o'] an applicable cell whose fault never triggered. *)

(** {2 Table 5} *)

type summary = (string * (Taxonomy.detection * int) list * (Taxonomy.recovery * int) list) list
(** Per file system: how often each technique was observed. *)

val summarize : Driver.report list -> summary

val pp_summary : Format.formatter -> summary -> unit
(** Rendered with checkmark buckets like the paper's Table 5. *)

module Driver = Iron_core.Driver
module Render = Iron_core.Render
module Taxonomy = Iron_core.Taxonomy
module Explore = Iron_crash.Explore

let schema_version = 1

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type fp_cell = {
  row : string;
  col : string;
  applicable : bool;
  fired : int;
  detection : string list;
  recovery : string list;
  note : string;
  d_sym : string;
  r_sym : string;
}

type fp_matrix = {
  fault : string;
  rows : string list;
  cols : string list;
  cells : fp_cell list;
}

type fingerprint = {
  fp_fs : string;
  fp_seed : int;
  matrices : fp_matrix list;
  counters : (string * int) list;
}

type crash_violation = { state : string; v_kind : string; detail : string }

type crash = {
  c_fs : string;
  c_seed : int;
  c_max_states : int;
  log_len : int;
  epochs : int;
  states : int;
  tc_detected : int;
  kind_counts : (string * int) list;
  violations : crash_violation list;
}

type forensic_culprit = {
  fc_block : int;
  fc_label : string;
  fc_role : string;
  fc_txn : int;
  fc_policy : string;
  fc_epoch : int;
  fc_op : int;
  fc_op_label : string;
  fc_rule : string;
  fc_first_seq : int;
  fc_dropped : int;
  fc_torn : bool;
}

type forensic_chain = {
  fh_state : string;
  fh_kind : string;
  fh_detail : string;
  fh_probes : int;
  fh_summary : string;
  fh_culprits : forensic_culprit list;
}

type forensic_log = {
  fl_seq : int;
  fl_block : int;
  fl_epoch : int;
  fl_label : string;
  fl_txn : int;
  fl_policy : string;
  fl_role : string;
  fl_op : int;
  fl_op_label : string;
  fl_rule : string;
}

type forensics = {
  fo_fs : string;
  fo_seed : int;
  fo_max_states : int;
  fo_chains : forensic_chain list;
  fo_log : forensic_log list;
}

type metrics_set = {
  m_name : string;
  m_seed : int;
  m_metrics : (string * int) list;
}

type bench_record = {
  experiment : string;
  wall_ms : int;
  b_jobs : int;
  b_workers : int;
  metrics : (string * int) list;
}

type bench = { records : bench_record list }

type rule = {
  metric : string;
  max_value : int option;
  min_value : int option;
  le_metric : string option;
}

type thresholds = { rules : rule list }

type fuzz_case = {
  z_index : int;
  z_workload : string;
  z_minimized : string;
  z_checked : int;
  z_violations : int;
  z_first : crash_violation list;
}

type fuzz = {
  z_fs : string;
  z_seq : int;
  z_seed : int;
  z_cap : int;
  z_workloads : int;
  z_log_writes : int;
  z_states_raw : int;
  z_states : int;
  z_violations : int;
  z_tc : int;
  z_kinds : (string * int) list;
  z_corpus : string;
  z_cases : fuzz_case list;
}

type traffic_tenant = {
  tt_tenant : int;
  tt_ops : int;
  tt_viol : int;
  tt_cross : int;
}

type traffic = {
  t_fs : string;
  t_clients : int;
  t_tenants : int;
  t_seed : int;
  t_zipf_milli : int;
  t_arrival : string;
  t_duration_ms : int;
  t_num_blocks : int;
  t_ops : int;
  t_errors : int;
  t_ops_per_sim_sec : int;
  t_p50_us : int;
  t_p99_us : int;
  t_op_counts : (string * int) list;
  t_chunks_touched : int;
  t_blocks_touched : int;
  t_states : int;
  t_tc : int;
  t_viol : int;
  t_cross : int;
  t_mount_viol : int;
  t_per_tenant : traffic_tenant list;
}

type t =
  | Fingerprint of fingerprint
  | Crash of crash
  | Forensics of forensics
  | Metrics of metrics_set
  | Bench of bench
  | Thresholds of thresholds
  | Fuzz of fuzz
  | Traffic of traffic

let kind_name = function
  | Fingerprint _ -> "fingerprint"
  | Crash _ -> "crash"
  | Forensics _ -> "forensics"
  | Metrics _ -> "metrics"
  | Bench _ -> "bench"
  | Thresholds _ -> "bench-thresholds"
  | Fuzz _ -> "fuzz"
  | Traffic _ -> "traffic"

let filename = function
  | Fingerprint f -> Printf.sprintf "fingerprint-%s.json" f.fp_fs
  | Crash c -> Printf.sprintf "crash-%s.json" c.c_fs
  | Forensics f -> Printf.sprintf "forensics-%s.json" f.fo_fs
  | Metrics m -> Printf.sprintf "metrics-%s.json" m.m_name
  | Bench _ -> "bench.json"
  | Thresholds _ -> "bench-thresholds.json"
  | Fuzz z -> Printf.sprintf "fuzz-%s.json" z.z_fs
  | Traffic t -> Printf.sprintf "traffic-%s.json" t.t_fs

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let of_fingerprint ~seed (r : Driver.report) =
  let matrices =
    List.map
      (fun (m : Driver.matrix) ->
        let cells =
          List.concat_map
            (fun row ->
              List.filter_map
                (fun col ->
                  let c = m.Driver.cell row col in
                  if not c.Driver.applicable then None
                  else
                    Some
                      {
                        row;
                        col = String.make 1 col;
                        applicable = c.Driver.applicable;
                        fired = c.Driver.fired;
                        detection =
                          List.map Taxonomy.detection_name c.Driver.detection;
                        recovery =
                          List.map Taxonomy.recovery_name c.Driver.recovery;
                        note = c.Driver.note;
                        d_sym = Render.cell_symbols ~which:`Detection c;
                        r_sym = Render.cell_symbols ~which:`Recovery c;
                      })
                m.Driver.cols)
            m.Driver.rows
        in
        {
          fault = Taxonomy.fault_kind_name m.Driver.fault;
          rows = m.Driver.rows;
          cols = List.map (String.make 1) m.Driver.cols;
          cells;
        })
      r.Driver.matrices
  in
  Fingerprint
    {
      fp_fs = r.Driver.name;
      fp_seed = seed;
      matrices;
      counters = Driver.counters r;
    }

let crash_kinds =
  [ Explore.Unmountable; Explore.Data_loss; Explore.Fsck_unclean; Explore.Panic ]

let of_crash ~seed ~max_states (r : Explore.report) =
  Crash
    {
      c_fs = r.Explore.fs;
      c_seed = seed;
      c_max_states = max_states;
      log_len = r.Explore.log_len;
      epochs = r.Explore.rep_epochs;
      states = r.Explore.states;
      tc_detected = r.Explore.tc_detected;
      kind_counts =
        List.map
          (fun k -> (Explore.kind_to_string k, Explore.count r k))
          crash_kinds;
      violations =
        List.map
          (fun (v : Explore.violation) ->
            {
              state = v.Explore.state;
              v_kind = Explore.kind_to_string v.Explore.v_kind;
              detail = v.Explore.detail;
            })
          r.Explore.violations;
    }

let of_forensics ~seed ~max_states (r : Explore.report) =
  Forensics
    {
      fo_fs = r.Explore.fs;
      fo_seed = seed;
      fo_max_states = max_states;
      fo_chains =
        List.map
          (fun (ch : Explore.chain) ->
            {
              fh_state = ch.Explore.ch_state;
              fh_kind = Explore.kind_to_string ch.Explore.ch_kind;
              fh_detail = ch.Explore.ch_detail;
              fh_probes = ch.Explore.ch_probes;
              fh_summary = ch.Explore.ch_summary;
              fh_culprits =
                List.map
                  (fun (c : Explore.culprit) ->
                    {
                      fc_block = c.Explore.cu_block;
                      fc_label = c.Explore.cu_label;
                      fc_role = c.Explore.cu_role;
                      fc_txn = c.Explore.cu_txn;
                      fc_policy = c.Explore.cu_policy;
                      fc_epoch = c.Explore.cu_epoch;
                      fc_op = c.Explore.cu_op;
                      fc_op_label = c.Explore.cu_op_label;
                      fc_rule = c.Explore.cu_rule;
                      fc_first_seq = c.Explore.cu_first_seq;
                      fc_dropped = c.Explore.cu_dropped;
                      fc_torn = c.Explore.cu_torn;
                    })
                  ch.Explore.ch_culprits;
            })
          r.Explore.chains;
      fo_log =
        List.map
          (fun (l : Explore.logged) ->
            {
              fl_seq = l.Explore.lg_seq;
              fl_block = l.Explore.lg_block;
              fl_epoch = l.Explore.lg_epoch;
              fl_label = l.Explore.lg_label;
              fl_txn = l.Explore.lg_txn;
              fl_policy = l.Explore.lg_policy;
              fl_role = l.Explore.lg_role;
              fl_op = l.Explore.lg_op;
              fl_op_label = l.Explore.lg_op_label;
              fl_rule = l.Explore.lg_rule;
            })
          r.Explore.log;
    }

let of_metrics ~name ~seed metrics =
  Metrics { m_name = name; m_seed = seed; m_metrics = metrics }

(* Counters verbatim; gauges truncated (they are whole numbers in the
   deterministic registries, e.g. queue depths); histograms as their
   count and truncated sum — all integers, so the artifact compares
   exactly. *)
let metrics_of_snapshot snap =
  List.concat_map
    (fun (path, v) ->
      match v with
      | Iron_obs.Obs.Counter n -> [ (path, n) ]
      | Iron_obs.Obs.Gauge g -> [ (path, int_of_float g) ]
      | Iron_obs.Obs.Histogram h ->
          [
            (path ^ ".count", h.Iron_obs.Obs.count);
            (path ^ ".sum", int_of_float h.Iron_obs.Obs.sum);
          ])
    snap

let bench_of_records records = Bench { records }

(* The fuzz artifact keeps the campaign's deterministic identity: the
   corpus digest pins every crash state checked, the cases pin every
   violating workload with its minimized form. Chains stay out — the
   goldens are regenerated without [--explain]. *)
let of_fuzz (r : Iron_fuzz.Fuzz.report) =
  Fuzz
    {
      z_fs = r.Iron_fuzz.Fuzz.fz_fs;
      z_seq = r.Iron_fuzz.Fuzz.fz_seq;
      z_seed = r.Iron_fuzz.Fuzz.fz_seed;
      z_cap = r.Iron_fuzz.Fuzz.fz_cap;
      z_workloads = r.Iron_fuzz.Fuzz.fz_workloads;
      z_log_writes = r.Iron_fuzz.Fuzz.fz_log_writes;
      z_states_raw = r.Iron_fuzz.Fuzz.fz_states_raw;
      z_states = r.Iron_fuzz.Fuzz.fz_states;
      z_violations = r.Iron_fuzz.Fuzz.fz_violations;
      z_tc = r.Iron_fuzz.Fuzz.fz_tc;
      z_kinds = r.Iron_fuzz.Fuzz.fz_kinds;
      z_corpus = r.Iron_fuzz.Fuzz.fz_corpus;
      z_cases =
        List.map
          (fun (c : Iron_fuzz.Fuzz.case) ->
            {
              z_index = c.Iron_fuzz.Fuzz.cs_index;
              z_workload = c.Iron_fuzz.Fuzz.cs_workload;
              z_minimized = c.Iron_fuzz.Fuzz.cs_minimized;
              z_checked = c.Iron_fuzz.Fuzz.cs_checked;
              z_violations = c.Iron_fuzz.Fuzz.cs_violations;
              z_first =
                List.map
                  (fun (state, v_kind, detail) -> { state; v_kind; detail })
                  c.Iron_fuzz.Fuzz.cs_first;
            })
          r.Iron_fuzz.Fuzz.fz_cases;
    }

(* The traffic artifact is all-integer by the simulator's design
   (quantized skew, bucket-bound latencies, simulated time), so it
   compares exactly like the other deterministic kinds. *)
let of_traffic (r : Iron_traffic.Traffic.report) =
  Traffic
    {
      t_fs = r.Iron_traffic.Traffic.r_fs;
      t_clients = r.Iron_traffic.Traffic.r_clients;
      t_tenants = r.Iron_traffic.Traffic.r_tenants;
      t_seed = r.Iron_traffic.Traffic.r_seed;
      t_zipf_milli = r.Iron_traffic.Traffic.r_zipf_milli;
      t_arrival = r.Iron_traffic.Traffic.r_arrival;
      t_duration_ms = r.Iron_traffic.Traffic.r_duration_ms;
      t_num_blocks = r.Iron_traffic.Traffic.r_num_blocks;
      t_ops = r.Iron_traffic.Traffic.r_ops;
      t_errors = r.Iron_traffic.Traffic.r_errors;
      t_ops_per_sim_sec = r.Iron_traffic.Traffic.r_ops_per_sim_sec;
      t_p50_us = r.Iron_traffic.Traffic.r_p50_us;
      t_p99_us = r.Iron_traffic.Traffic.r_p99_us;
      t_op_counts = r.Iron_traffic.Traffic.r_op_counts;
      t_chunks_touched = r.Iron_traffic.Traffic.r_chunks_touched;
      t_blocks_touched = r.Iron_traffic.Traffic.r_blocks_touched;
      t_states = r.Iron_traffic.Traffic.r_states;
      t_tc = r.Iron_traffic.Traffic.r_tc;
      t_viol = r.Iron_traffic.Traffic.r_viol;
      t_cross = r.Iron_traffic.Traffic.r_cross;
      t_mount_viol = r.Iron_traffic.Traffic.r_mount_viol;
      t_per_tenant =
        List.map
          (fun (ts : Iron_traffic.Traffic.tenant_stat) ->
            {
              tt_tenant = ts.Iron_traffic.Traffic.ts_tenant;
              tt_ops = ts.Iron_traffic.Traffic.ts_ops;
              tt_viol = ts.Iron_traffic.Traffic.ts_viol;
              tt_cross = ts.Iron_traffic.Traffic.ts_cross;
            })
          r.Iron_traffic.Traffic.r_tenant;
    }

(* ------------------------------------------------------------------ *)
(* Schemas                                                             *)
(* ------------------------------------------------------------------ *)

(* Each record is described once, as its fields in encoding order. The
   encoder, the decoder and the differ are all derived from that one
   list, so adding a field is one line in one place.

   A field's comparison policy works under its record's path prefix
   PRE:
   - [Exact]: one item at PRE/name when the values differ;
   - [Counter_set]: one item per differing key, at PRE/name/key;
   - [Each]: a count item at PRE/name when the lengths differ, then
     the items of at most [cap] differing elements, each given the path
     PRE/name[i];
   - [Custom]: given PRE itself, for fields that keep their own layout. *)

type item = { path : string; golden : string; fresh : string }

let item path golden fresh = { path; golden; fresh }

(* An [Opt] member is left out when it is [None]; no artifact nests an
   optional anywhere else. *)
type _ ty =
  | Int : int ty
  | Bool : bool ty
  | Str : string ty
  | List : 'a ty -> 'a list ty
  | Counters : (string * int) list ty
  | Opt : 'a ty -> 'a option ty
  | Rec : 'a schema -> 'a ty

and _ cmp =
  | Exact : 'a cmp
  | Counter_set : (string * int) list cmp
  | Each : {
      noun : string;
      cap : int;
      items : string -> 'e -> 'e -> item list;
    }
      -> 'e list cmp
  | Custom : (string -> 'a -> 'a -> item list) -> 'a cmp

and 'r field =
  | Field : {
      name : string;
      ty : 'a ty;
      get : 'r -> 'a;
      cmp : 'a cmp;
    }
      -> 'r field

and 'r schema = {
  fields : 'r field list;
  decode : (string * Json.t) list -> ('r, string) result;
}

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let rec encode : type a. a ty -> a -> Json.t =
 fun ty v ->
  match ty with
  | Int -> Json.Int v
  | Bool -> Json.Bool v
  | Str -> Json.String v
  | List t -> Json.List (List.map (encode t) v)
  | Counters -> Json.Assoc (List.map (fun (k, n) -> (k, Json.Int n)) v)
  | Opt t -> Option.fold ~none:Json.Null ~some:(encode t) v
  | Rec s -> Json.Assoc (members s v)

and members : type r. r schema -> r -> (string * Json.t) list =
 fun s r ->
  List.fold_right
    (fun (Field f) acc ->
      match (f.ty, f.get r) with
      | Opt t, Some v -> (f.name, encode t v) :: acc
      | Opt _, None -> acc
      | ty, v -> (f.name, encode ty v) :: acc)
    s.fields []

let rec decode : type a. a ty -> Json.t -> (a, string) result =
 fun ty j ->
  match ty with
  | Int -> Json.to_int j
  | Bool -> Json.to_bool j
  | Str -> Json.to_str j
  | List t ->
      let* l = Json.to_list j in
      map_result (decode t) l
  | Counters ->
      let* a = Json.to_assoc j in
      map_result
        (fun (k, v) ->
          let* n = Json.to_int v in
          Ok (k, n))
        a
  | Opt t -> Result.map Option.some (decode t j)
  | Rec s ->
      let* a = Json.to_assoc j in
      s.decode a

(* Take member [name] of an object whose members are [all]. [cur] is
   what follows the members taken so far: a document in field order is
   read in one walk, and only a member out of place is looked up. *)
let take : type a.
    string ->
    a ty ->
    (string * Json.t) list ->
    (string * Json.t) list ->
    (a * (string * Json.t) list, string) result =
 fun name ty all cur ->
  let found, cur =
    match cur with
    | (k, v) :: rest when String.equal k name -> (Some v, rest)
    | _ -> (List.assoc_opt name all, cur)
  in
  match (found, ty) with
  | None, Opt _ -> Ok (None, cur)
  | None, _ -> Error (Printf.sprintf "missing member %S" name)
  | Some v, _ -> (
      match decode ty v with
      | Ok x -> Ok (x, cur)
      | Error e -> Error (name ^ ": " ^ e))

(* [record make |> field ... |> seal] describes a record; [make] takes
   the fields in the order they are listed. *)
type ('r, 'k) builder = {
  rev_fields : 'r field list;
  dec :
    (string * Json.t) list ->
    (string * Json.t) list ->
    ('k * (string * Json.t) list, string) result;
}

let record make = { rev_fields = []; dec = (fun _ cur -> Ok (make, cur)) }

let field ?(cmp = Exact) name ty get b =
  {
    rev_fields = Field { name; ty; get; cmp } :: b.rev_fields;
    dec =
      (fun all cur ->
        let* make, cur = b.dec all cur in
        let* v, cur = take name ty all cur in
        Ok (make v, cur));
  }

let seal ?(check = Result.ok) b =
  {
    fields = List.rev b.rev_fields;
    decode =
      (fun all ->
        let* r, _ = b.dec all all in
        check r);
  }

let rec show : type a. a ty -> a -> string =
 fun ty v ->
  match ty with
  | Int -> string_of_int v
  | Str -> v
  | List t -> String.concat "," (List.map (show t) v)
  | _ -> Json.to_string ~indent:false (encode ty v)

(* Exact comparison of (string * int) counter sets, keyed by union. *)
let diff_counters prefix golden fresh =
  let keys =
    List.sort_uniq compare (List.map fst golden @ List.map fst fresh)
  in
  List.filter_map
    (fun k ->
      let g = List.assoc_opt k golden and f = List.assoc_opt k fresh in
      if g = f then None
      else
        let show = function Some n -> string_of_int n | None -> "(absent)" in
        Some (item (prefix ^ "/" ^ k) (show g) (show f)))
    keys

(* Element-wise over the common prefix (the lists are in a
   deterministic order). *)
let diff_each ~noun ~cap items path g f =
  let count n = Printf.sprintf "%d %s" n noun in
  let rec go i shown acc g f =
    match (g, f) with
    | gx :: g, fx :: f when shown < cap ->
        if gx = fx then go (i + 1) shown acc g f
        else
          let its = items (Printf.sprintf "%s[%d]" path i) gx fx in
          go (i + 1) (shown + 1) (List.rev_append its acc) g f
    | _ -> List.rev acc
  in
  let gn = List.length g and fn = List.length f in
  (if gn = fn then [] else [ item path (count gn) (count fn) ])
  @ go 0 0 [] g f

let diff_fields schema pre g f =
  List.concat_map
    (fun (Field { name; ty; get; cmp }) ->
      let gv = get g and fv = get f in
      match cmp with
      | Exact ->
          if gv = fv then []
          else [ item (pre ^ "/" ^ name) (show ty gv) (show ty fv) ]
      | Counter_set -> diff_counters (pre ^ "/" ^ name) gv fv
      | Each { noun; cap; items } ->
          diff_each ~noun ~cap items (pre ^ "/" ^ name) gv fv
      | Custom diff -> diff pre gv fv)
    schema.fields

let each ?(cap = 20) noun items = Each { noun; cap; items }
let one show path g f = [ item path (show g) (show f) ]

(* -- fingerprint -- *)

let show_cell (c : fp_cell) =
  if not c.applicable then "not applicable"
  else
    Printf.sprintf "d=%S r=%S fired=%d detection=[%s] recovery=[%s] note=%S"
      c.d_sym c.r_sym c.fired
      (String.concat "," c.detection)
      (String.concat "," c.recovery)
      c.note

let na_cell row col =
  {
    row;
    col;
    applicable = false;
    fired = 0;
    detection = [];
    recovery = [];
    note = "";
    d_sym = ".";
    r_sym = ".";
  }

let cell_schema =
  record (fun row col applicable fired detection recovery note d_sym r_sym ->
      { row; col; applicable; fired; detection; recovery; note; d_sym; r_sym })
  |> field "row" Str (fun c -> c.row)
  |> field "col" Str (fun c -> c.col)
  |> field "applicable" Bool (fun c -> c.applicable)
  |> field "fired" Int (fun c -> c.fired)
  |> field "detection" (List Str) (fun c -> c.detection)
  |> field "recovery" (List Str) (fun c -> c.recovery)
  |> field "note" Str (fun c -> c.note)
  |> field "d" Str (fun c -> c.d_sym)
  |> field "r" Str (fun c -> c.r_sym)
  |> seal

(* Cells keyed by (row, col); a missing key is the not-applicable cell.
   Iterate the union in row-major golden order, then any fresh-only
   keys. *)
let diff_cells pre gcells fcells =
  let key c = (c.row, c.col) in
  let keys =
    List.map key gcells
    @ List.filter
        (fun k -> not (List.exists (fun c -> key c = k) gcells))
        (List.map key fcells)
  in
  List.filter_map
    (fun (row, col) ->
      let find cells =
        match List.find_opt (fun c -> c.row = row && c.col = col) cells with
        | Some c -> c
        | None -> na_cell row col
      in
      let gc = find gcells and fc = find fcells in
      if gc = fc then None
      else
        Some
          (item
             (Printf.sprintf "%s/%s:%s" pre row col)
             (show_cell gc) (show_cell fc)))
    keys

let matrix_schema =
  record (fun fault rows cols cells -> { fault; rows; cols; cells })
  |> field "fault" Str (fun m -> m.fault)
  |> field "rows" (List Str) (fun m -> m.rows)
  |> field "cols" (List Str) (fun m -> m.cols)
  |> field ~cmp:(Custom diff_cells) "cells" (List (Rec cell_schema)) (fun m ->
         m.cells)
  |> seal

(* Matrices keyed by fault, each compared under PRE/<fault>. *)
let diff_matrices pre gms fms =
  let faults =
    List.sort_uniq compare (List.map (fun m -> m.fault) (gms @ fms))
  in
  let presence = function
    | Some _ -> "matrix present"
    | None -> "matrix absent"
  in
  List.concat_map
    (fun fault ->
      let path = pre ^ "/" ^ fault in
      let find ms = List.find_opt (fun m -> m.fault = fault) ms in
      match (find gms, find fms) with
      | Some gm, Some fm -> diff_fields matrix_schema path gm fm
      | gm, fm -> [ item path (presence gm) (presence fm) ])
    faults

let fingerprint_schema =
  record (fun fp_fs fp_seed counters matrices ->
      { fp_fs; fp_seed; matrices; counters })
  |> field "fs" Str (fun f -> f.fp_fs)
  |> field "seed" Int (fun f -> f.fp_seed)
  |> field ~cmp:Counter_set "counters" Counters (fun f -> f.counters)
  |> field ~cmp:(Custom diff_matrices) "matrices" (List (Rec matrix_schema))
       (fun f -> f.matrices)
  |> seal

(* -- crash -- *)

let show_violation v = Printf.sprintf "[%s] %s: %s" v.v_kind v.state v.detail

let violation_schema =
  record (fun state v_kind detail -> { state; v_kind; detail })
  |> field "state" Str (fun v -> v.state)
  |> field "kind" Str (fun v -> v.v_kind)
  |> field "detail" Str (fun v -> v.detail)
  |> seal

let crash_schema =
  record
    (fun c_fs c_seed c_max_states log_len epochs states tc_detected kind_counts
         violations ->
      {
        c_fs;
        c_seed;
        c_max_states;
        log_len;
        epochs;
        states;
        tc_detected;
        kind_counts;
        violations;
      })
  |> field "fs" Str (fun c -> c.c_fs)
  |> field "seed" Int (fun c -> c.c_seed)
  |> field "max_states" Int (fun c -> c.c_max_states)
  |> field "log_len" Int (fun c -> c.log_len)
  |> field "epochs" Int (fun c -> c.epochs)
  |> field "states" Int (fun c -> c.states)
  |> field "tc_detected" Int (fun c -> c.tc_detected)
  |> field ~cmp:Counter_set "counts" Counters (fun c -> c.kind_counts)
  |> field
       ~cmp:(each "violations" (one show_violation))
       "violations" (List (Rec violation_schema)) (fun c -> c.violations)
  |> seal

(* -- forensics -- *)

let show_culprit c =
  Printf.sprintf
    "blk %d (%s) %s x%d from w%d epoch %d txn %d [%s] role %s op %d (%s) rule %S"
    c.fc_block c.fc_label
    (if c.fc_torn then "torn" else "dropped")
    c.fc_dropped c.fc_first_seq c.fc_epoch c.fc_txn c.fc_policy c.fc_role
    c.fc_op c.fc_op_label c.fc_rule

let culprit_schema =
  record
    (fun fc_block fc_label fc_role fc_txn fc_policy fc_epoch fc_op fc_op_label
         fc_rule fc_first_seq fc_dropped fc_torn ->
      {
        fc_block;
        fc_label;
        fc_role;
        fc_txn;
        fc_policy;
        fc_epoch;
        fc_op;
        fc_op_label;
        fc_rule;
        fc_first_seq;
        fc_dropped;
        fc_torn;
      })
  |> field "block" Int (fun c -> c.fc_block)
  |> field "label" Str (fun c -> c.fc_label)
  |> field "role" Str (fun c -> c.fc_role)
  |> field "txn" Int (fun c -> c.fc_txn)
  |> field "policy" Str (fun c -> c.fc_policy)
  |> field "epoch" Int (fun c -> c.fc_epoch)
  |> field "op" Int (fun c -> c.fc_op)
  |> field "op_label" Str (fun c -> c.fc_op_label)
  |> field "rule" Str (fun c -> c.fc_rule)
  |> field "first_seq" Int (fun c -> c.fc_first_seq)
  |> field "dropped" Int (fun c -> c.fc_dropped)
  |> field "torn" Bool (fun c -> c.fc_torn)
  |> seal

(* A differing chain is reported as up to four grouped items. *)
let diff_chain path g f =
  let group name key show =
    if key g = key f then []
    else [ item (path ^ "/" ^ name) (show g) (show f) ]
  in
  group "violation"
    (fun ch -> (ch.fh_state, ch.fh_kind, ch.fh_detail))
    (fun ch -> Printf.sprintf "[%s] %s: %s" ch.fh_kind ch.fh_state ch.fh_detail)
  @ group "probes"
      (fun ch -> ch.fh_probes)
      (fun ch -> string_of_int ch.fh_probes)
  @ group "summary" (fun ch -> ch.fh_summary) (fun ch -> ch.fh_summary)
  @ group "culprits"
      (fun ch -> ch.fh_culprits)
      (fun ch -> String.concat "; " (List.map show_culprit ch.fh_culprits))

let chain_schema =
  record (fun fh_state fh_kind fh_detail fh_probes fh_summary fh_culprits ->
      { fh_state; fh_kind; fh_detail; fh_probes; fh_summary; fh_culprits })
  |> field "state" Str (fun ch -> ch.fh_state)
  |> field "kind" Str (fun ch -> ch.fh_kind)
  |> field "detail" Str (fun ch -> ch.fh_detail)
  |> field "probes" Int (fun ch -> ch.fh_probes)
  |> field "summary" Str (fun ch -> ch.fh_summary)
  |> field "culprits" (List (Rec culprit_schema)) (fun ch -> ch.fh_culprits)
  |> seal

let show_logged l =
  Printf.sprintf "w%d blk %d (%s) epoch %d txn %d [%s] role %s op %d (%s) rule %S"
    l.fl_seq l.fl_block l.fl_label l.fl_epoch l.fl_txn l.fl_policy l.fl_role
    l.fl_op l.fl_op_label l.fl_rule

let log_schema =
  record
    (fun fl_seq fl_block fl_epoch fl_label fl_txn fl_policy fl_role fl_op
         fl_op_label fl_rule ->
      {
        fl_seq;
        fl_block;
        fl_epoch;
        fl_label;
        fl_txn;
        fl_policy;
        fl_role;
        fl_op;
        fl_op_label;
        fl_rule;
      })
  |> field "seq" Int (fun l -> l.fl_seq)
  |> field "block" Int (fun l -> l.fl_block)
  |> field "epoch" Int (fun l -> l.fl_epoch)
  |> field "label" Str (fun l -> l.fl_label)
  |> field "txn" Int (fun l -> l.fl_txn)
  |> field "policy" Str (fun l -> l.fl_policy)
  |> field "role" Str (fun l -> l.fl_role)
  |> field "op" Int (fun l -> l.fl_op)
  |> field "op_label" Str (fun l -> l.fl_op_label)
  |> field "rule" Str (fun l -> l.fl_rule)
  |> seal

(* Forensics artifacts are deterministic by explore's contract: exact
   comparison, element-wise, noise-capped like crash violations. *)
let forensics_schema =
  record (fun fo_fs fo_seed fo_max_states fo_chains fo_log ->
      { fo_fs; fo_seed; fo_max_states; fo_chains; fo_log })
  |> field "fs" Str (fun f -> f.fo_fs)
  |> field "seed" Int (fun f -> f.fo_seed)
  |> field "max_states" Int (fun f -> f.fo_max_states)
  |> field ~cmp:(each "chains" diff_chain) "chains" (List (Rec chain_schema))
       (fun f -> f.fo_chains)
  |> field
       ~cmp:(each "writes" (one show_logged))
       "log" (List (Rec log_schema)) (fun f -> f.fo_log)
  |> seal

(* -- metrics and bench -- *)

(* The counters sit at the record prefix: metrics/<name>/<path>. *)
let metrics_schema =
  record (fun m_name m_seed m_metrics -> { m_name; m_seed; m_metrics })
  |> field "name" Str (fun m -> m.m_name)
  |> field "seed" Int (fun m -> m.m_seed)
  |> field ~cmp:(Custom diff_counters) "metrics" Counters (fun m ->
         m.m_metrics)
  |> seal

(* Bench records and threshold rules are compared by [diff_bench] and
   [check_thresholds] below, never field by field. *)
let bench_record_schema =
  record (fun experiment wall_ms b_jobs b_workers metrics ->
      { experiment; wall_ms; b_jobs; b_workers; metrics })
  |> field "experiment" Str (fun r -> r.experiment)
  |> field "wall_ms" Int (fun r -> r.wall_ms)
  |> field "jobs" Int (fun r -> r.b_jobs)
  |> field "workers" Int (fun r -> r.b_workers)
  |> field "metrics" Counters (fun r -> r.metrics)
  |> seal

let bench_schema =
  record (fun records -> { records })
  |> field "records" (List (Rec bench_record_schema)) (fun b -> b.records)
  |> seal

let rule_schema =
  record (fun metric max_value min_value le_metric ->
      { metric; max_value; min_value; le_metric })
  |> field "metric" Str (fun r -> r.metric)
  |> field "max" (Opt Int) (fun r -> r.max_value)
  |> field "min" (Opt Int) (fun r -> r.min_value)
  |> field "le_metric" (Opt Str) (fun r -> r.le_metric)
  |> seal ~check:(fun r ->
         if r.max_value = None && r.min_value = None && r.le_metric = None
         then
           Error
             (Printf.sprintf
                "rule for %S has no bound (need max, min or le_metric)"
                r.metric)
         else Ok r)

let thresholds_schema =
  record (fun rules -> { rules })
  |> field "rules" (List (Rec rule_schema)) (fun th -> th.rules)
  |> seal

(* -- fuzz -- *)

let show_case c =
  Printf.sprintf "[w%04d] %s (min: %s) %d violations in %d states%s" c.z_index
    c.z_workload c.z_minimized c.z_violations c.z_checked
    (String.concat ""
       (List.map (fun v -> "; " ^ show_violation v) c.z_first))

let case_schema =
  record
    (fun z_index z_workload z_minimized z_checked z_violations z_first ->
      { z_index; z_workload; z_minimized; z_checked; z_violations; z_first })
  |> field "index" Int (fun c -> c.z_index)
  |> field "workload" Str (fun c -> c.z_workload)
  |> field "minimized" Str (fun c -> c.z_minimized)
  |> field "checked" Int (fun c -> c.z_checked)
  |> field "violations" Int (fun (c : fuzz_case) -> c.z_violations)
  |> field "first" (List (Rec violation_schema)) (fun c -> c.z_first)
  |> seal

(* Fuzz campaigns are deterministic by construction: exact, cell-level
   comparison, case lists keyed element-wise like crash violations. *)
let fuzz_schema =
  record
    (fun z_fs z_seq z_seed z_cap z_workloads z_log_writes z_states_raw z_states
         z_violations z_tc z_kinds z_corpus z_cases ->
      {
        z_fs;
        z_seq;
        z_seed;
        z_cap;
        z_workloads;
        z_log_writes;
        z_states_raw;
        z_states;
        z_violations;
        z_tc;
        z_kinds;
        z_corpus;
        z_cases;
      })
  |> field "fs" Str (fun z -> z.z_fs)
  |> field "seq" Int (fun z -> z.z_seq)
  |> field "seed" Int (fun z -> z.z_seed)
  |> field "cap" Int (fun z -> z.z_cap)
  |> field "workloads" Int (fun z -> z.z_workloads)
  |> field "log_writes" Int (fun z -> z.z_log_writes)
  |> field "states_raw" Int (fun z -> z.z_states_raw)
  |> field "states" Int (fun z -> z.z_states)
  |> field "violations" Int (fun (z : fuzz) -> z.z_violations)
  |> field "tc_detected" Int (fun z -> z.z_tc)
  |> field ~cmp:Counter_set "counts" Counters (fun z -> z.z_kinds)
  |> field "corpus" Str (fun z -> z.z_corpus)
  |> field ~cmp:(each "cases" (one show_case)) "cases" (List (Rec case_schema))
       (fun z -> z.z_cases)
  |> seal

(* -- traffic -- *)

let show_tenant tt =
  Printf.sprintf "t%d: ops %d, violations %d (cross %d)" tt.tt_tenant tt.tt_ops
    tt.tt_viol tt.tt_cross

let tenant_schema =
  record (fun tt_tenant tt_ops tt_viol tt_cross ->
      { tt_tenant; tt_ops; tt_viol; tt_cross })
  |> field "tenant" Int (fun tt -> tt.tt_tenant)
  |> field "ops" Int (fun tt -> tt.tt_ops)
  |> field "violations" Int (fun tt -> tt.tt_viol)
  |> field "cross" Int (fun tt -> tt.tt_cross)
  |> seal

(* Traffic reports are simulated-time end to end: exact, cell-level
   comparison including every per-tenant row. *)
let traffic_schema =
  record
    (fun t_fs t_clients t_tenants t_seed t_zipf_milli t_arrival t_duration_ms
         t_num_blocks t_ops t_errors t_ops_per_sim_sec t_p50_us t_p99_us
         t_op_counts t_chunks_touched t_blocks_touched t_states t_tc t_viol
         t_cross t_mount_viol t_per_tenant ->
      {
        t_fs;
        t_clients;
        t_tenants;
        t_seed;
        t_zipf_milli;
        t_arrival;
        t_duration_ms;
        t_num_blocks;
        t_ops;
        t_errors;
        t_ops_per_sim_sec;
        t_p50_us;
        t_p99_us;
        t_op_counts;
        t_chunks_touched;
        t_blocks_touched;
        t_states;
        t_tc;
        t_viol;
        t_cross;
        t_mount_viol;
        t_per_tenant;
      })
  |> field "fs" Str (fun t -> t.t_fs)
  |> field "clients" Int (fun t -> t.t_clients)
  |> field "tenants" Int (fun t -> t.t_tenants)
  |> field "seed" Int (fun t -> t.t_seed)
  |> field "zipf_milli" Int (fun t -> t.t_zipf_milli)
  |> field "arrival" Str (fun t -> t.t_arrival)
  |> field "duration_ms" Int (fun t -> t.t_duration_ms)
  |> field "num_blocks" Int (fun t -> t.t_num_blocks)
  |> field "ops" Int (fun t -> t.t_ops)
  |> field "errors" Int (fun t -> t.t_errors)
  |> field "ops_per_sim_sec" Int (fun t -> t.t_ops_per_sim_sec)
  |> field "p50_us" Int (fun t -> t.t_p50_us)
  |> field "p99_us" Int (fun t -> t.t_p99_us)
  |> field ~cmp:Counter_set "op_counts" Counters (fun t -> t.t_op_counts)
  |> field "chunks_touched" Int (fun t -> t.t_chunks_touched)
  |> field "blocks_touched" Int (fun t -> t.t_blocks_touched)
  |> field "states" Int (fun t -> t.t_states)
  |> field "tc_detected" Int (fun t -> t.t_tc)
  |> field "violations" Int (fun t -> t.t_viol)
  |> field "cross_tenant" Int (fun t -> t.t_cross)
  |> field "mount_violations" Int (fun t -> t.t_mount_viol)
  |> field
       ~cmp:(each ~cap:max_int "tenants" (one show_tenant))
       "per_tenant" (List (Rec tenant_schema)) (fun t -> t.t_per_tenant)
  |> seal

(* ------------------------------------------------------------------ *)
(* Encoding and decoding                                               *)
(* ------------------------------------------------------------------ *)

let to_string t =
  let body =
    match t with
    | Fingerprint f -> members fingerprint_schema f
    | Crash c -> members crash_schema c
    | Forensics f -> members forensics_schema f
    | Metrics m -> members metrics_schema m
    | Bench b -> members bench_schema b
    | Thresholds th -> members thresholds_schema th
    | Fuzz z -> members fuzz_schema z
    | Traffic tr -> members traffic_schema tr
  in
  Json.to_string
    (Json.Assoc
       (("schema_version", Json.Int schema_version)
       :: ("kind", Json.String (kind_name t))
       :: body))
  ^ "\n"

let of_string s =
  let* j = Json.of_string s in
  let* version = Json.mem_int "schema_version" j in
  if version <> schema_version then
    Error
      (Printf.sprintf "unknown schema version %d (this build supports %d)"
         version schema_version)
  else
    let* kind = Json.mem_str "kind" j in
    let* all = Json.to_assoc j in
    (* Start the in-order walk after the envelope. Neither envelope
       member names a field of any kind, so no lookup changes. *)
    let body =
      match all with
      | ("schema_version", _) :: ("kind", _) :: rest -> rest
      | _ -> all
    in
    let read schema wrap = Result.map wrap (schema.decode body) in
    match kind with
    | "fingerprint" -> read fingerprint_schema (fun f -> Fingerprint f)
    | "crash" -> read crash_schema (fun c -> Crash c)
    | "forensics" -> read forensics_schema (fun f -> Forensics f)
    | "metrics" -> read metrics_schema (fun m -> Metrics m)
    | "bench" -> read bench_schema (fun b -> Bench b)
    | "bench-thresholds" -> read thresholds_schema (fun th -> Thresholds th)
    | "fuzz" -> read fuzz_schema (fun z -> Fuzz z)
    | "traffic" -> read traffic_schema (fun tr -> Traffic tr)
    | k -> Error (Printf.sprintf "unknown artifact kind %S" k)

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      Result.map_error (fun e -> path ^ ": " ^ e) (of_string s)

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)
(* ------------------------------------------------------------------ *)

let default_timing_tol = 0.5

(* Bench metrics compared exactly: state/violation/Tc counts, forensics
   chain/culprit/probe counts, job counts, and the traffic simulator's
   simulated-time metrics. Everything else in a bench record
   (wall-clock, per-cycle microseconds, allocation bytes, speedups) is
   a timing-class metric compared under tolerance. *)
let is_exact_metric name =
  let suffix s = String.length name >= String.length s
    && String.sub name (String.length name - String.length s) (String.length s) = s
  in
  suffix ".states" || suffix ".violations" || suffix ".tc_detected"
  || suffix ".chains" || suffix ".culprits" || suffix ".probes"
  || suffix ".workloads" || suffix ".log_writes"
  (* traffic metrics are simulated-time, hence deterministic *)
  || suffix ".ops" || suffix ".ops_per_sim_sec" || suffix ".p50_us"
  || suffix ".p99_us" || suffix ".cross_tenant" || suffix ".blocks_touched"
  || suffix ".chunks_touched"
  || name = "jobs"

let within_tol tol golden fresh =
  let g = float_of_int golden and f = float_of_int fresh in
  Float.abs (f -. g) <= tol *. Float.max (Float.abs g) 1.0

let diff_bench ~timing_tol g f =
  let items = ref [] in
  let push i = items := i :: !items in
  let gn = List.length g.records and fn = List.length f.records in
  if gn <> fn then
    push
      (item "bench/records"
         (Printf.sprintf "%d records" gn)
         (Printf.sprintf "%d records" fn));
  List.iteri
    (fun i gr ->
      match List.nth_opt f.records i with
      | None -> ()
      | Some fr ->
          let pre = Printf.sprintf "bench/%s[%d]" gr.experiment i in
          if gr.experiment <> fr.experiment then
            push (item (pre ^ "/experiment") gr.experiment fr.experiment)
          else begin
            (* wall-clock and workers: tolerance / informational *)
            if not (within_tol timing_tol gr.wall_ms fr.wall_ms) then
              push
                (item (pre ^ "/wall_ms")
                   (string_of_int gr.wall_ms)
                   (Printf.sprintf "%d (tol ±%.0f%%)" fr.wall_ms
                      (100. *. timing_tol)));
            if gr.b_jobs <> fr.b_jobs then
              push
                (item (pre ^ "/jobs")
                   (string_of_int gr.b_jobs)
                   (string_of_int fr.b_jobs));
            let keys =
              List.sort_uniq compare
                (List.map fst gr.metrics @ List.map fst fr.metrics)
            in
            List.iter
              (fun k ->
                match
                  (List.assoc_opt k gr.metrics, List.assoc_opt k fr.metrics)
                with
                | None, None -> ()
                | Some v, None ->
                    push (item (pre ^ "/" ^ k) (string_of_int v) "(absent)")
                | None, Some v ->
                    push (item (pre ^ "/" ^ k) "(absent)" (string_of_int v))
                | Some gv, Some fv ->
                    if is_exact_metric k then begin
                      if gv <> fv then
                        push
                          (item (pre ^ "/" ^ k) (string_of_int gv)
                             (string_of_int fv))
                    end
                    else if not (within_tol timing_tol gv fv) then
                      push
                        (item (pre ^ "/" ^ k) (string_of_int gv)
                           (Printf.sprintf "%d (tol ±%.0f%%)" fv
                              (100. *. timing_tol))))
              keys
          end)
    g.records;
  List.rev !items

let check_thresholds th b =
  (* Union of all records' metrics, later records winning. *)
  let merged =
    List.fold_left
      (fun acc r ->
        List.fold_left (fun acc (k, v) -> (k, v) :: acc) acc r.metrics)
      [] b.records
  in
  let lookup k = List.assoc_opt k merged in
  List.concat_map
    (fun r ->
      let pre = "thresholds/" ^ r.metric in
      match lookup r.metric with
      | None -> [ item pre "metric measured" "metric absent from bench run" ]
      | Some v ->
          List.concat
            [
              (match r.max_value with
              | Some max when v > max ->
                  [ item pre (Printf.sprintf "<= %d" max) (string_of_int v) ]
              | _ -> []);
              (match r.min_value with
              | Some min when v < min ->
                  [ item pre (Printf.sprintf ">= %d" min) (string_of_int v) ]
              | _ -> []);
              (match r.le_metric with
              | Some other -> (
                  match lookup other with
                  | None ->
                      [
                        item pre
                          (Printf.sprintf "<= %s" other)
                          (other ^ " absent from bench run");
                      ]
                  | Some ov when v > ov ->
                      [
                        item pre
                          (Printf.sprintf "<= %s = %d" other ov)
                          (string_of_int v);
                      ]
                  | Some _ -> [])
              | None -> []);
            ])
    th.rules

let diff ?(timing_tol = default_timing_tol) golden fresh =
  let under schema id g f =
    Ok (diff_fields schema (kind_name golden ^ "/" ^ id) g f)
  in
  match (golden, fresh) with
  | Fingerprint g, Fingerprint f -> under fingerprint_schema g.fp_fs g f
  | Crash g, Crash f -> under crash_schema g.c_fs g f
  | Forensics g, Forensics f -> under forensics_schema g.fo_fs g f
  | Metrics g, Metrics f -> under metrics_schema g.m_name g f
  | Bench g, Bench f -> Ok (diff_bench ~timing_tol g f)
  | Fuzz g, Fuzz f -> under fuzz_schema g.z_fs g f
  | Traffic g, Traffic f -> under traffic_schema g.t_fs g f
  | Thresholds th, Bench b -> Ok (check_thresholds th b)
  | g, f ->
      Error
        (Printf.sprintf "cannot diff a %s artifact against a %s artifact"
           (kind_name g) (kind_name f))

let pp_item fmt i =
  Format.fprintf fmt "%s@.  golden: %s@.  fresh:  %s" i.path i.golden i.fresh

let pp_items fmt items =
  List.iteri
    (fun i it ->
      if i > 0 then Format.fprintf fmt "@.";
      Format.fprintf fmt "%a@." pp_item it)
    items

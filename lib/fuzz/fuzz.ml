(* The crash-fuzzing campaign: see fuzz.mli. *)

module Fs = Iron_vfs.Fs
module Memdisk = Iron_disk.Memdisk
module Pool = Iron_util.Pool
module Sha1 = Iron_util.Sha1
module Obs = Iron_obs.Obs
module Explore = Iron_crash.Explore

type case = {
  cs_index : int;
  cs_workload : string;
  cs_minimized : string;
  cs_checked : int;
  cs_violations : int;
  cs_first : (string * string * string) list;
  cs_chains : Explore.chain list;
}

type report = {
  fz_fs : string;
  fz_seq : int;
  fz_seed : int;
  fz_cap : int;
  fz_workloads : int;
  fz_log_writes : int;
  fz_peak_bytes : int;
  fz_states_raw : int;
  fz_states : int;
  fz_violations : int;
  fz_tc : int;
  fz_kinds : (string * int) list;
  fz_corpus : string;
  fz_cases : case list;
}

let count r name = try List.assoc name r.fz_kinds with Not_found -> 0

let minimize ~repro w =
  let rec shrink w =
    let n = List.length w in
    if n <= 1 then w
    else
      let rec try_at i =
        if i >= n then w
        else
          let w' = List.filteri (fun j _ -> j <> i) w in
          if repro w' then shrink w' else try_at (i + 1)
      in
      try_at 0
  in
  shrink w

(* Per-workload result of the check pass. *)
type wres = {
  wr_checked : int;
  wr_tc : int;
  wr_kinds : string list;  (* one entry per violation *)
  wr_case : case option;
}

let no_result = { wr_checked = 0; wr_tc = 0; wr_kinds = []; wr_case = None }

let campaign ?(jobs = 1) ?(seq = 1) ?(states_per_workload = 150) ?(seed = 7)
    ?(samples = 200) ?(explain = false) ?obs brand =
  let params =
    {
      Memdisk.default_params with
      Memdisk.num_blocks = 2048;
      seed = seed lxor 0xb3;
    }
  in
  let fs = Fs.brand_name brand in
  let fsck = Explore.offline_fsck brand in
  let in_span name f =
    match obs with
    | None -> f ()
    | Some o -> Obs.span o ~subsystem:"fuzz" name f
  in
  let ws = Array.of_list (Gen.workloads ~seq ~seed ~samples) in
  let indexed = Array.to_list (Array.mapi (fun k w -> (k, w)) ws) in
  let base = Explore.make_base ~params ~setup:Gen.setup brand in
  let record w =
    let tr = Gen.tracker () in
    let session =
      Explore.record_session ~params ~base
        ~ops:(fun fsb ~closed_epochs -> Gen.run fsb ~closed_epochs tr w)
        brand
    in
    (session, tr)
  in
  (* Enumeration seed is a pure function of the workload index, so the
     spec list of workload [k] is identical in the scan pass, the
     check pass, and for any [-j]. *)
  let enumerate k session =
    Explore.enumerate_session
      ~seed:(seed + (997 * k))
      ~max_states:states_per_workload session
  in
  (* Scan: record + enumerate everything, keep only state digests. *)
  let scanned =
    in_span "scan" (fun () ->
        Pool.map_jobs ~jobs
          (fun (k, w) ->
            let session, _ = record w in
            let specs = enumerate k session in
            ( List.map (Explore.spec_digest session) specs,
              Explore.session_log_len session,
              Explore.session_log_bytes session ))
          indexed)
  in
  (* Corpus fold, sequential in workload order: the first workload to
     produce a digest owns that crash state. *)
  let corpus = Hashtbl.create 4096 in
  let novel = Array.make (max 1 (Array.length ws)) [] in
  let states_raw = ref 0 and log_writes = ref 0 in
  (* Sessions are per-workload and dropped as soon as their digests are
     folded in, so a job's residency is one write log at a time; the
     campaign's peak is the largest single log. *)
  let peak_bytes = ref 0 in
  List.iteri
    (fun k (ds, ll, lb) ->
      log_writes := !log_writes + ll;
      if lb > !peak_bytes then peak_bytes := lb;
      let keep = ref [] in
      List.iteri
        (fun i d ->
          incr states_raw;
          if not (Hashtbl.mem corpus d) then begin
            Hashtbl.add corpus d ();
            keep := i :: !keep
          end)
        ds;
      novel.(k) <- List.rev !keep)
    scanned;
  let states = Hashtbl.length corpus in
  let corpus_digest =
    let all = Hashtbl.fold (fun d () acc -> d :: acc) corpus [] in
    let ctx = Sha1.init () in
    List.iter
      (fun d -> Sha1.feed ctx (Bytes.unsafe_of_string d))
      (List.sort String.compare all);
    Sha1.to_hex (Sha1.finalize ctx)
  in
  (* The oracle check of one state of a recorded workload. Lying-cache
     states (a persisted write from after the first dropped one — no
     barrier-honouring disk produces them) get the fixture-only oracle
     and no offline cross-check: the disk promised nothing, and fsck
     would flag stale in-place blocks that no recovery mechanism was
     ever given a chance to see. Tc and fixture-durability checks still
     run there. *)
  let checker session tr =
    let rp = Gen.replay tr in
    fun spec ->
      let honest = Explore.spec_honest session spec in
      let expects ~epoch =
        if honest then Gen.expects rp ~epoch
        else Gen.expects ~lying:true rp ~epoch:0
      in
      Explore.check_spec ~params ~brand ~fsck:(fsck && honest) ~expects
        session spec
  in
  (* Check: re-record the owners and check exactly their novel states. *)
  let check_workload (k, w) =
    match novel.(k) with
    | [] -> no_result
    | idxs ->
        let session, tr = record w in
        let specs = Array.of_list (enumerate k session) in
        let check = checker session tr in
        let bad = ref [] and tc = ref 0 in
        List.iter
          (fun i ->
            let spec = specs.(i) in
            let o = check spec in
            if o.Explore.tc then incr tc;
            match o.Explore.viol with
            | None -> ()
            | Some (kind, detail) -> bad := (spec, kind, detail) :: !bad)
          idxs;
        let bad = List.rev !bad in
        let case =
          if bad = [] then None
          else begin
            let kinds =
              List.sort_uniq compare (List.map (fun (_, k, _) -> k) bad)
            in
            (* A subsequence reproduces if fuzzing it (its own oracle,
               its own enumeration) re-finds any of the same violation
               kinds. *)
            let repro w' =
              w' <> []
              &&
              let s', tr' = record w' in
              let check' = checker s' tr' in
              List.exists
                (fun spec ->
                  match (check' spec).Explore.viol with
                  | Some (kk, _) -> List.mem kk kinds
                  | None -> false)
                (enumerate k s')
            in
            let minimized = minimize ~repro w in
            let chains =
              if not explain then []
              else begin
                let ctx = Explore.session_forensics ~params ~fsck session in
                List.map
                  (Explore.explain_spec ~check ctx session)
                  (List.filteri (fun i _ -> i < 3) bad)
              end
            in
            Some
              {
                cs_index = k;
                cs_workload = Gen.to_string w;
                cs_minimized = Gen.to_string minimized;
                cs_checked = List.length idxs;
                cs_violations = List.length bad;
                cs_first =
                  List.filteri (fun i _ -> i < 3) bad
                  |> List.map (fun (spec, kind, detail) ->
                         ( Explore.spec_label spec,
                           Explore.kind_to_string kind,
                           detail ));
                cs_chains = chains;
              }
          end
        in
        {
          wr_checked = List.length idxs;
          wr_tc = !tc;
          wr_kinds = List.map (fun (_, k, _) -> Explore.kind_to_string k) bad;
          wr_case = case;
        }
  in
  let results = in_span "check" (fun () -> Pool.map_jobs ~jobs check_workload indexed) in
  let tc = List.fold_left (fun a r -> a + r.wr_tc) 0 results in
  let all_kinds = List.concat_map (fun r -> r.wr_kinds) results in
  let violations = List.length all_kinds in
  let kinds =
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun k ->
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      all_kinds;
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])
  in
  let cases = List.filter_map (fun r -> r.wr_case) results in
  (match obs with
  | None -> ()
  | Some o ->
      Obs.add o "fuzz.workloads" (Array.length ws);
      Obs.add o "fuzz.log_writes" !log_writes;
      Obs.add o "fuzz.peak_log_bytes" !peak_bytes;
      Obs.add o "fuzz.states_raw" !states_raw;
      Obs.add o "fuzz.states" states;
      Obs.add o "fuzz.violations" violations;
      Obs.add o "fuzz.tc_detected" tc);
  {
    fz_fs = fs;
    fz_seq = seq;
    fz_seed = seed;
    fz_cap = states_per_workload;
    fz_workloads = Array.length ws;
    fz_log_writes = !log_writes;
    fz_peak_bytes = !peak_bytes;
    fz_states_raw = !states_raw;
    fz_states = states;
    fz_violations = violations;
    fz_tc = tc;
    fz_kinds = kinds;
    fz_corpus = corpus_digest;
    fz_cases = cases;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "%s: fuzz seq<=%d seed %d: %d workloads, %d log writes, %d raw states -> \
     %d unique -> %d violations in %d workloads (unmountable %d, data-loss \
     %d, fsck %d, panic %d), Tc detections %d@,"
    r.fz_fs r.fz_seq r.fz_seed r.fz_workloads r.fz_log_writes r.fz_states_raw
    r.fz_states r.fz_violations (List.length r.fz_cases)
    (count r "unmountable") (count r "data-loss") (count r "fsck-unclean")
    (count r "panic") r.fz_tc;
  Format.fprintf ppf "  corpus sha1 %s@," r.fz_corpus;
  let shown = ref 0 in
  List.iter
    (fun c ->
      if !shown < 8 then begin
        incr shown;
        Format.fprintf ppf "  [w%04d] %s@," c.cs_index c.cs_workload;
        if c.cs_minimized <> c.cs_workload then
          Format.fprintf ppf "    minimized: %s@," c.cs_minimized;
        Format.fprintf ppf "    %d violation(s) in %d state(s)@,"
          c.cs_violations c.cs_checked;
        List.iter
          (fun (state, kind, detail) ->
            Format.fprintf ppf "    [%s] %s: %s@," state kind detail)
          c.cs_first
      end)
    r.fz_cases;
  if List.length r.fz_cases > !shown then
    Format.fprintf ppf "  ... and %d more violating workloads@,"
      (List.length r.fz_cases - !shown);
  Format.fprintf ppf "@]"

let pp_chains ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun c ->
      List.iter
        (fun ch ->
          Format.fprintf ppf "[w%04d] %s@,%a@," c.cs_index c.cs_workload
            Explore.pp_chain ch)
        c.cs_chains)
    r.fz_cases;
  Format.fprintf ppf "@]"

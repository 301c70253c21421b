module Obs = Iron_obs.Obs

type row = {
  index : int;
  label : string;
  ratios : (string * float) list;
}

type table = {
  baselines : (string * float) list;
  rows : row list;
  observed : Obs.recording option;
}

(* One run's simulated time and, observed, what its own context
   recorded. *)
let time ~observe brand app =
  let obs = if observe then Some (Obs.create ()) else None in
  match Runner.run ?obs brand app with
  | Ok r -> (r.Runner.elapsed_ms, Option.map Obs.finish obs)
  | Error e ->
      failwith
        (Printf.sprintf "table6: %s failed: %s" app.Apps.name
           (Iron_vfs.Errno.to_string e))

let compute ?(observe = false) ?(jobs = 1) () =
  let baselines =
    List.map
      (fun app -> (app.Apps.name, time ~observe Iron_ext3.Ext3.std app))
      Apps.all
  in
  (* The 32 variants are independent experiments (each [Runner.run]
     builds its own device stack), so they fan out over the domain
     pool; results slot back in variant order, keeping the table
     byte-identical for any [jobs]. *)
  let rows =
    Iron_util.Pool.map_jobs ~jobs
      (fun (index, (profile, brand)) ->
        let runs = List.map (fun app -> time ~observe brand app) Apps.all in
        let ratios =
          List.map2
            (fun (name, (base, _)) (ms, _) -> (name, ms /. base))
            baselines runs
        in
        (* Paper row order counts feature bits upward with Tc fastest. *)
        ( { index; label = Iron_ext3.Profile.variant_label profile; ratios },
          List.filter_map snd runs ))
      (List.mapi (fun i v -> (i, v)) Iron_ixt3.Ixt3.all_variants)
  in
  (* Runs in table order: the baselines, then each row's four. *)
  let runs =
    List.filter_map (fun (_, (_, o)) -> o) baselines @ List.concat_map snd rows
  in
  {
    baselines = List.map (fun (name, (ms, _)) -> (name, ms)) baselines;
    rows = List.map fst rows;
    observed = (if observe then Some (Obs.lanes runs) else None);
  }

let pp fmt t =
  Format.fprintf fmt
    "Table 6: overheads of ixt3 variants (normalized to ext3)@.";
  Format.fprintf fmt "%-4s %-15s" "#" "features";
  List.iter (fun (n, _) -> Format.fprintf fmt " %9s" n) t.baselines;
  Format.fprintf fmt "@.";
  List.iter
    (fun row ->
      Format.fprintf fmt "%-4d %-15s" row.index row.label;
      List.iter
        (fun (_, r) ->
          let s =
            if r < 0.995 then Printf.sprintf "[%.2f]" r
            else if r > 1.10 then Printf.sprintf "%.2f*" r
            else Printf.sprintf "%.2f" r
          in
          Format.fprintf fmt " %9s" s)
        row.ratios;
      Format.fprintf fmt "@.")
    t.rows;
  Format.fprintf fmt "baseline ext3 times:";
  List.iter (fun (n, ms) -> Format.fprintf fmt " %s=%.2fs" n (ms /. 1000.)) t.baselines;
  Format.fprintf fmt "@.([x] = speedup; x* = slowdown beyond 10%%)@."

type row = {
  index : int;
  label : string;
  ratios : (string * float) list;
}

type table = {
  baselines : (string * float) list;
  rows : row list;
}

let time ?obs brand app =
  match Runner.run ?obs brand app with
  | Ok r -> r.Runner.elapsed_ms
  | Error e ->
      failwith
        (Printf.sprintf "table6: %s failed: %s" app.Apps.name
           (Iron_vfs.Errno.to_string e))

let compute ?obs ?(jobs = 1) () =
  let baselines =
    List.map
      (fun app ->
        (app.Apps.name, time ?obs Iron_ext3.Ext3.std app))
      Apps.all
  in
  (* The 32 variants are independent experiments (each [Runner.run]
     builds its own device stack), so they fan out over the domain
     pool; results slot back in variant order, keeping the table
     byte-identical for any [jobs]. *)
  let rows =
    Iron_util.Pool.map_jobs ~jobs
      (fun (index, (profile, brand)) ->
        let ratios =
          List.map
            (fun app ->
              let base = List.assoc app.Apps.name baselines in
              (app.Apps.name, time ?obs brand app /. base))
            Apps.all
        in
        (* Paper row order counts feature bits upward with Tc fastest. *)
        { index; label = Iron_ext3.Profile.variant_label profile; ratios })
      (List.mapi (fun i v -> (i, v)) Iron_ixt3.Ixt3.all_variants)
  in
  { baselines; rows }

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

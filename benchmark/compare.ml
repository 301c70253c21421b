module Json = Iron_report.Json

type bound = { metric : string; higher_is_better : bool; bound : float }
type verdict = Better | Worse | Same | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Same -> "same"
  | Unresolved -> "unresolved"

let ( let* ) = Result.bind

let num = function
  | Json.Int i -> Ok (float_of_int i)
  | Json.Float f -> Ok f
  | _ -> Error "expected a number"

let all_ok xs =
  List.fold_right
    (fun x acc ->
      let* x = x in
      let* acc = acc in
      Ok (x :: acc))
    xs (Ok [])

let bounds_of_benchmark_json text =
  let* doc = Json.of_string text in
  let* entries = Json.mem_list "end_to_end" doc in
  all_ok
    (List.map
       (fun e ->
         let* metric = Json.mem_str "name" e in
         let* better = Json.mem_str "better" e in
         let* bound = Result.bind (Json.member "bound" e) num in
         Ok { metric; higher_is_better = better = "higher"; bound })
       entries)

let spread xs =
  let q1, m, q3 = Stats.quartiles xs in
  if m = 0. then infinity else (q3 -. q1) /. Float.abs m

let min_pairs = 10

let verdict b ~a ~b:bs =
  let better x y = if b.higher_is_better then y > x else y < x in
  let rec zip xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []
  in
  let pairs = zip a bs in
  let wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
  let win_frac =
    float_of_int wins /. float_of_int (max 1 (List.length pairs))
  in
  let q1a, ma, q3a = Stats.quartiles a and mb = Stats.median bs in
  let worse_by =
    (if b.higher_is_better then ma -. mb else mb -. ma) /. Float.abs ma
  in
  let dominates =
    List.for_all (fun y -> List.for_all (fun x -> better x y) a) bs
  in
  (* A gain needs at least ten pairs; a regression is judged on the
     medians against the bound whatever the count. *)
  let enough = List.length pairs >= min_pairs in
  let v =
    if spread a > b.bound || spread bs > b.bound then
      if dominates && enough then Better else Unresolved
    else if
      enough && win_frac >= 0.9
      && better ma mb
      && Float.abs (mb -. ma) > q3a -. q1a
    then Better
    else if worse_by > b.bound then Worse
    else Same
  in
  (v, win_frac)

type record = {
  workload : string;
  seed : int;
  sha : string;
  failed : int;
  metrics : (string * float) list;
}

let record_of_json j =
  let* set = Json.mem_str "set" j in
  let* trace = Json.mem_int "trace" j in
  let* workload = Json.mem_str "workload" j in
  let* seed = Json.mem_int "seed" j in
  let* sha = Json.mem_str "outputs_sha1" j in
  let* failed = Json.mem_int "failed" j in
  let* ms = Result.bind (Json.member "metrics" j) Json.to_assoc in
  let* metrics =
    all_ok
      (List.map
         (fun (n, v) ->
           let* v = num v in
           Ok (n, v))
         ms)
  in
  Ok (set, trace, { workload; seed; sha; failed; metrics })

(* "FILE" or "FILE@SET": the untraced records of a record file. *)
let load spec =
  let file, set =
    match String.rindex_opt spec '@' with
    | Some i ->
        ( String.sub spec 0 i,
          Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
    | None -> (spec, None)
  in
  let* text =
    try Ok (In_channel.with_open_bin file In_channel.input_all)
    with Sys_error e -> Error e
  in
  let* doc = Json.of_string text in
  let* items = Json.to_list doc in
  let* recs = all_ok (List.map record_of_json items) in
  Ok
    (List.filter_map
       (fun (s, trace, r) ->
         if trace = 0 && (set = None || set = Some s) then Some r else None)
       recs)

let main ~benchmark_json a_spec b_spec =
  let loaded =
    let* text =
      try Ok (In_channel.with_open_bin benchmark_json In_channel.input_all)
      with Sys_error e -> Error e
    in
    let* bounds = bounds_of_benchmark_json text in
    let* a = load a_spec in
    let* b = load b_spec in
    Ok (bounds, a, b)
  in
  match loaded with
  | Error e ->
      prerr_endline ("compare: " ^ e);
      2
  | Ok (bounds, a, b) ->
      let workloads =
        List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b))
      in
      let bad = ref false in
      Printf.printf "%-12s %-12s %-32s %-32s %-7s %s\n" "workload" "metric"
        "A median [q1 q3] (n)" "B median [q1 q3] (n)" "B wins" "verdict";
      List.iter
        (fun w ->
          let ra = List.filter (fun r -> r.workload = w) a
          and rb = List.filter (fun r -> r.workload = w) b in
          let side rs m =
            List.filter_map (fun r -> List.assoc_opt m r.metrics) rs
          in
          let show xs =
            let q1, m, q3 = Stats.quartiles xs in
            Printf.sprintf "%.5g [%.5g %.5g] (%d)" m q1 q3 (List.length xs)
          in
          List.iter
            (fun bd ->
              match (side ra bd.metric, side rb bd.metric) with
              | [], _ | _, [] -> ()
              | xa, xb ->
                  let v, wins = verdict bd ~a:xa ~b:xb in
                  if v = Worse then bad := true;
                  Printf.printf "%-12s %-12s %-32s %-32s %-7.2f %s\n" w
                    bd.metric (show xa) (show xb) wins (verdict_to_string v))
            bounds;
          let seeds = List.sort_uniq compare (List.map (fun r -> r.seed) ra) in
          List.iter
            (fun s ->
              let shas rs =
                List.sort_uniq compare
                  (List.filter_map
                     (fun r -> if r.seed = s then Some r.sha else None)
                     rs)
              in
              let sa = shas ra and sb = shas rb in
              if sb <> [] && sa <> sb then begin
                bad := true;
                Printf.printf "%-12s outputs_sha1 changed at seed %d: %s -> %s\n"
                  w s (String.concat "," sa) (String.concat "," sb)
              end)
            seeds;
          let fails rs = List.fold_left (fun n r -> n + r.failed) 0 rs in
          if fails rb > fails ra then begin
            bad := true;
            Printf.printf "%-12s failed requests rose: %d -> %d\n" w (fails ra)
              (fails rb)
          end)
        workloads;
      if !bad then 1 else 0

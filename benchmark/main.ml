(* The benchmark's command line; benchmark/README.md describes it.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--record FILE [--set LABEL]]
     main.exe compare A.json[@SET] B.json[@SET] *)

open Iron_benchmark

let golden_dir = "golden"
let trace_dir = Filename.concat "benchmark" "_out"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchmark: " ^ msg);
      exit 2)
    fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let append_record file json =
  let old =
    if Sys.file_exists file then
      match
        Result.bind
          (Iron_report.Json.of_string
             (In_channel.with_open_bin file In_channel.input_all))
          Iron_report.Json.to_list
      with
      | Ok items -> items
      | Error e -> fail "%s: %s" file e
    else []
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        (Iron_report.Json.to_string (Iron_report.Json.List (old @ [ json ])));
      output_char oc '\n')

let run args =
  let workload = ref "" and seed = ref Plan.default_seed in
  let seconds = ref 20. and trace = ref 0 in
  let record = ref "" and set = ref "1" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "W  one of: " ^ String.concat ", " Plan.names );
      ( "--seed",
        Arg.Set_int seed,
        "N  seed the requests are made from (default 61904)" );
      ( "--seconds",
        Arg.Set_float seconds,
        "S  how long to keep sending requests (default 20)" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1  per-layer metrics instead of end-to-end ones" );
      ( "--record",
        Arg.Set_string record,
        "FILE  append the run to a JSON record file" );
      ("--set", Arg.Set_string set, "LABEL  the record's set (default 1)");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) args spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]"
   with
  | Arg.Bad msg -> fail "%s" msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (!seconds >= 0.) then fail "--seconds must be >= 0";
  let traced = !trace = 1 in
  if !workload = "" then fail "--workload is required";
  let setup () =
    match Plan.make ~traced ~golden_dir ~seed:!seed !workload with
    | Ok w -> w
    | Error e -> fail "%s" e
  in
  let r = Bench.run setup ~seed:!seed ~seconds:!seconds ~traced in
  let trace_file =
    if traced then begin
      mkdir_p trace_dir;
      let file = Filename.concat trace_dir ("trace-" ^ !workload ^ ".json") in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Tracer.chrome_trace ()));
      Some file
    end
    else None
  in
  if !record <> "" then append_record !record (Bench.to_json ~set:!set r);
  Bench.print ?trace_file r

let () =
  match Array.to_list Sys.argv with
  | [ _; "compare"; a; b ] ->
      exit (Compare.main ~benchmark_json:"BENCHMARK.json" a b)
  | _ :: "compare" :: _ -> fail "usage: compare A.json[@SET] B.json[@SET]"
  | _ -> run Sys.argv

(* The crash-state enumerator.

   The differential suite holds [Explore.enumerate_session] to the
   reference in enumerate_ref.ml: the same specs (label, choices, torn
   write) in the same order, on the sessions the campaigns record —
   the fuzz fixture under a sample of seq-2 workloads on all seven
   brands, the explorer's racing files, and one long multi-epoch
   session shaped like traffic's blast phase — at caps from none to
   past every systematic state.

   The property pins the cap contract: a smaller cap gives a prefix of
   a larger one, never more specs than the cap, and no two specs that
   persist the same writes. *)

open Iron_disk
module Fs = Iron_vfs.Fs
module Explore = Iron_crash.Explore
module Gen = Iron_fuzz.Gen

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1609 |]) t

let brands =
  [
    ("ext3", Iron_ext3.Ext3.std);
    ("reiserfs", Iron_reiserfs.Reiserfs.brand);
    ("jfs", Iron_jfs.Jfs.brand);
    ("ntfs", Iron_ntfs.Ntfs.brand);
    ("ixt3", Iron_ext3.Ext3.ixt3);
    ("ext3-writeback", Iron_ext3.Modes.writeback);
    ("ext3-data", Iron_ext3.Modes.data);
  ]

let caps = [ 0; 1; 7; 150; 1000 ]

let params seed =
  { Memdisk.default_params with Memdisk.num_blocks = 2048; seed }

let fail_on what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %s" what (Iron_vfs.Errno.to_string e)

(* --- sessions ----------------------------------------------------------- *)

(* Every [stride]-th seq-2 workload over the fuzz fixture that syncs:
   one without an fsync or a sync leaves its writes buffered and its
   log empty. *)
let fuzz_sessions ~stride (name, brand) =
  let params = params (7 lxor 0xb3) in
  let base = Explore.make_base ~params ~setup:Gen.setup brand in
  let syncs = function Gen.Fsync _ | Gen.Sync -> true | _ -> false in
  Gen.workloads ~seq:2 ~seed:7 ~samples:0
  |> List.filter (List.exists syncs)
  |> List.filteri (fun k _ -> k mod stride = 0)
  |> List.map (fun w ->
         let tr = Gen.tracker () in
         ( Printf.sprintf "%s [%s]" name (Gen.to_string w),
           Explore.record_session ~params ~base
             ~ops:(fun fsb ~closed_epochs -> Gen.run fsb ~closed_epochs tr w)
             brand ))

let content tag i =
  Printf.sprintf "%s-%d-%s" tag i
    (String.make
       (900 + (i * 1777 mod 6200))
       (Char.chr (Char.code 'a' + (i mod 26))))

let put (Fs.Boxed ((module F), t)) ~fsync path data =
  let fd = fail_on ("creat " ^ path) (F.creat t path) in
  ignore (fail_on ("write " ^ path) (F.write t fd ~off:0 (Bytes.of_string data)));
  if fsync then fail_on ("fsync " ^ path) (F.fsync t fd);
  ignore (F.close t fd)

(* [Explore.explore]'s workload: four fsync'd durable files in the
   base, then four racing files created, written and fsync'd. *)
let racing_session (name, brand) =
  let params = params (7 lxor 0x1207) in
  let base =
    Explore.make_base ~params
      ~setup:(fun fsb ->
        for i = 0 to 3 do
          put fsb ~fsync:true (Printf.sprintf "/durable%d" i) (content "durable" i)
        done)
      brand
  in
  let ops fsb ~closed_epochs:_ =
    for i = 0 to 3 do
      put fsb ~fsync:true (Printf.sprintf "/racing%d" i) (content "racing" (100 + i))
    done
  in
  (name ^ " racing", Explore.record_session ~params ~base ~ops brand)

(* Traffic's blast-phase shape: 48 writes over a dozen files, every
   third one fsync'd, so the log spans many epochs. *)
let long_session (name, brand) =
  let params = params 0x7A11 in
  let base = Explore.make_base ~params ~setup:(fun _ -> ()) brand in
  let ops (Fs.Boxed ((module F), t)) ~closed_epochs:_ =
    for step = 0 to 47 do
      let path = Printf.sprintf "/r%d" (step * 7 mod 12) in
      let fd =
        match F.open_ t path Fs.Rdwr with
        | Ok fd -> fd
        | Error _ -> fail_on ("creat " ^ path) (F.creat t path)
      in
      ignore (F.write t fd ~off:0 (Bytes.of_string (content "long" step)));
      if step mod 3 = 2 then ignore (F.fsync t fd);
      ignore (F.close t fd)
    done
  in
  (name ^ " long", Explore.record_session ~params ~base ~ops brand)

(* --- differential ------------------------------------------------------- *)

let show (label, choices, torn) =
  Printf.sprintf "%s {%s}%s" label
    (String.concat ";"
       (Array.to_list (Array.map (fun (b, i) -> Printf.sprintf "%d:%d" b i) choices)))
    (match torn with
    | None -> ""
    | Some (i, len) -> Printf.sprintf " T%d:%d" i len)

let view spec =
  (Explore.spec_label spec, Explore.spec_choices spec, Explore.spec_torn spec)

let ref_view (r : Enumerate_ref.spec) =
  (r.Enumerate_ref.label, r.Enumerate_ref.choices, r.Enumerate_ref.torn)

let same_as_ref ~seed (name, session) =
  let entries = Explore.session_entries session in
  let epochs = Explore.session_epochs session in
  List.iter
    (fun max_states ->
      let want =
        List.map ref_view
          (Enumerate_ref.enumerate_session ~seed ~max_states entries ~epochs)
      in
      let got = List.map view (Explore.enumerate_session ~seed ~max_states session) in
      let rec first k = function
        | w :: ws, g :: gs ->
            if w = g then first (k + 1) (ws, gs)
            else
              Alcotest.failf "%s, cap %d: spec %d is %s, reference %s" name
                max_states k (show g) (show w)
        | [], [] -> ()
        | w :: _, [] ->
            Alcotest.failf "%s, cap %d: %d specs, reference has %s next" name
              max_states k (show w)
        | [], g :: _ ->
            Alcotest.failf "%s, cap %d: reference ends at %d, got %s" name
              max_states k (show g)
      in
      first 0 (want, got))
    caps

let test_fuzz_fixture () =
  List.iter
    (fun b ->
      List.iteri
        (fun k s -> same_as_ref ~seed:(7 + (997 * k)) s)
        (fuzz_sessions ~stride:4 b))
    brands

let test_racing () = List.iter (fun b -> same_as_ref ~seed:7 (racing_session b)) brands

let test_long () =
  List.iter
    (fun b ->
      let ((_, s) as named) = long_session b in
      Alcotest.(check bool) "many epochs" true (Explore.session_epochs s >= 12);
      same_as_ref ~seed:61917 named)
    [ List.hd brands; List.nth brands 4 ]

(* --- the cap contract --------------------------------------------------- *)

let pool =
  lazy
    (Array.of_list
       (racing_session (List.hd brands)
       :: long_session (List.hd brands)
       :: fuzz_sessions ~stride:40 (List.nth brands 1)
       @ fuzz_sessions ~stride:40 (List.nth brands 4)))

let cap_contract =
  QCheck.Test.make ~name:"a smaller cap is a prefix, within the cap, no repeats"
    ~count:60
    QCheck.(triple small_nat (int_bound 400) (int_bound 400))
    (fun (pick, a, b) ->
      let sessions = Lazy.force pool in
      let _, s = sessions.(pick mod Array.length sessions) in
      let k = min a b and k' = max a b in
      let seed = pick + a in
      let small = List.map view (Explore.enumerate_session ~seed ~max_states:k s) in
      let large = List.map view (Explore.enumerate_session ~seed ~max_states:k' s) in
      let rec prefix = function
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && prefix (xs, ys)
        | _ :: _, [] -> false
      in
      let values = List.map (fun (_, c, t) -> (c, t)) large in
      List.length small <= k
      && prefix (small, large)
      && List.length (List.sort_uniq compare values) = List.length values)

let suites =
  [
    ( "crash.enumerate",
      [
        Alcotest.test_case "fuzz fixture, seven brands = reference" `Quick
          test_fuzz_fixture;
        Alcotest.test_case "explore's racing session = reference" `Quick
          test_racing;
        Alcotest.test_case "long multi-epoch session = reference" `Quick
          test_long;
        qtest cap_contract;
      ] );
  ]

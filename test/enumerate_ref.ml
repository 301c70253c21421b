(* The crash-state enumerator as it stood before it stopped at the
   [max_states] cap, deduplicated on the (choices, torn) value and built
   each candidate's choices from a block-ordered merge. Kept verbatim
   below this header, over a bare log-entry array instead of a session,
   as the reference that the differential tests in test_enumerate.ml
   hold [Iron_crash.Explore.enumerate_session] to. *)

module Wlog = Iron_crash.Wlog
module Prng = Iron_util.Prng

(* One reorder window: the entries a crash may persist any admissible
   subset of, on top of a durable prefix (the closed epochs before
   it). *)
type window = {
  w_name : string;
  durable_last : (int * int) list; (* per-block last durable write *)
  blocks : int array; (* window blocks, in first-touch order *)
  groups : int array array; (* per block: its window writes, in order *)
}

let window_of entries ~name ~in_durable ~in_window =
  let durable = Hashtbl.create 64 in
  Array.iteri
    (fun i (e : Wlog.entry) ->
      if in_durable e then Hashtbl.replace durable e.Wlog.w_block i)
    entries;
  let order = ref [] in
  let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i (e : Wlog.entry) ->
      if in_window e then
        match Hashtbl.find_opt groups e.Wlog.w_block with
        | Some l -> l := i :: !l
        | None ->
            Hashtbl.add groups e.Wlog.w_block (ref [ i ]);
            order := e.Wlog.w_block :: !order)
    entries;
  let blocks = Array.of_list (List.rev !order) in
  let durable_last =
    List.sort compare
      (Hashtbl.fold (fun b i acc -> (b, i) :: acc) durable [])
  in
  {
    w_name = name;
    durable_last;
    blocks;
    groups =
      Array.map
        (fun b -> Array.of_list (List.rev !(Hashtbl.find groups b)))
        blocks;
  }

(* A crash-state spec: the final persisted content choice per block
   ([choices] maps block -> log index whose data survives; blocks
   absent keep the baseline), plus at most one torn write — the first
   [len] bytes of log entry [idx] land on top of the otherwise-chosen
   content of its block. Specs respect per-block write order by
   construction: each block persists a prefix of its own writes. *)
type spec = {
  label : string;
  choices : (int * int) array; (* (block, entry idx), sorted by block *)
  torn : (int * int) option; (* (entry idx, persisted bytes) *)
}

(* Materialize a spec's [choices] from per-block persisted counts:
   count [c] for window block [j] keeps that block's first [c] window
   writes (content = the [c]-th), count [0] falls back to the durable
   prefix (or baseline). *)
let choices_of w counts =
  let m = Hashtbl.create 64 in
  List.iter (fun (b, i) -> Hashtbl.replace m b i) w.durable_last;
  Array.iteri
    (fun j c -> if c > 0 then Hashtbl.replace m w.blocks.(j) w.groups.(j).(c - 1))
    counts;
  let l = Hashtbl.fold (fun b i acc -> (b, i) :: acc) m [] in
  Array.of_list (List.sort compare l)

(* Dedup key: the final content assignment. Two specs from different
   windows that persist the same writes are one crash state. *)
let key_of choices torn =
  let buf = Buffer.create 128 in
  Array.iter
    (fun (b, i) -> Buffer.add_string buf (Printf.sprintf "%d:%d;" b i))
    choices;
  (match torn with
  | Some (i, len) -> Buffer.add_string buf (Printf.sprintf "T%d:%d" i len)
  | None -> ());
  Buffer.contents buf

let enumerate_session ~seed ~max_states entries ~epochs =
  let seen = Hashtbl.create 1024 in
  let specs = ref [] in
  let n_specs = ref 0 in
  let add label choices torn =
    if !n_specs < max_states then begin
      let key = key_of choices torn in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        specs := { label; choices; torn } :: !specs;
        incr n_specs
      end
    end
  in
  let half = ref 2048 in
  if Array.length entries > 0 then
    half := Bytes.length entries.(0).Wlog.w_data / 2;
  let systematic w =
    let counts = Array.make (Array.length w.blocks) 0 in
    let full () = Array.iteri (fun j g -> counts.(j) <- Array.length g) w.groups in
    let zero () = Array.fill counts 0 (Array.length counts) 0 in
    (* Global prefixes: the classic in-order power cut, one state per
       cut point. Walk the window in seq order, persisting one more
       write each step. *)
    zero ();
    add (w.w_name ^ "/cut0") (choices_of w counts) None;
    let seq_order =
      (* (window position -> block slot) in global write order *)
      let l = ref [] in
      Array.iteri
        (fun j g -> Array.iter (fun i -> l := (i, j) :: !l) g)
        w.groups;
      List.sort compare !l
    in
    List.iteri
      (fun n (_, j) ->
        counts.(j) <- counts.(j) + 1;
        add (Printf.sprintf "%s/cut%d" w.w_name (n + 1)) (choices_of w counts) None)
      seq_order;
    (* Drop-tail: persist everything except the tail of one block's
       writes — the reordered-commit shape (e.g. a journal payload
       block lost while the later commit block made it). Plus a torn
       variant where the first dropped write half-persisted. *)
    Array.iteri
      (fun j g ->
        let k = Array.length g in
        for kept = 0 to k - 1 do
          full ();
          counts.(j) <- kept;
          let choices = choices_of w counts in
          add
            (Printf.sprintf "%s/drop blk %d w%d" w.w_name w.blocks.(j) kept)
            choices None;
          add
            (Printf.sprintf "%s/torn blk %d w%d" w.w_name w.blocks.(j) kept)
            choices
            (Some (g.(kept), !half))
        done)
      w.groups
  in
  (* Barrier-honouring windows: one per sync-delimited epoch. *)
  let windows = ref [] in
  for e = 0 to epochs do
    let w =
      window_of entries
        ~name:(Printf.sprintf "e%d" e)
        ~in_durable:(fun en -> en.Wlog.w_epoch < e)
        ~in_window:(fun en -> en.Wlog.w_epoch = e)
    in
    if Array.length w.blocks > 0 then windows := w :: !windows
  done;
  (* The write-back-cache window: a disk that acknowledged every sync
     without flushing may reorder the whole log — the scenario the
     paper's transactional checksum exists for. *)
  let whole =
    window_of entries ~name:"all"
      ~in_durable:(fun _ -> false)
      ~in_window:(fun _ -> true)
  in
  List.iter systematic (List.rev !windows @ [ whole ]);
  (* Seeded random per-block prefixes over the whole-log window top the
     enumeration up to [max_states]. *)
  if Array.length whole.blocks > 0 then begin
    let rng = Prng.create (seed lxor 0xC4A54) in
    let counts = Array.make (Array.length whole.blocks) 0 in
    let attempts = ref 0 in
    while !n_specs < max_states && !attempts < 16 * max_states do
      incr attempts;
      Array.iteri
        (fun j g -> counts.(j) <- Prng.int rng (Array.length g + 1))
        whole.groups;
      let torn =
        if Prng.int rng 4 = 0 then begin
          (* Tear the first unpersisted write of one random block. *)
          let j = Prng.int rng (Array.length whole.blocks) in
          let g = whole.groups.(j) in
          if counts.(j) < Array.length g then
            Some (g.(counts.(j)), 1 + Prng.int rng (max 1 (!half * 2 - 1)))
          else None
        end
        else None
      in
      add (Printf.sprintf "all/rand%d" !attempts) (choices_of whole counts) torn
    done
  end;
  List.rev !specs

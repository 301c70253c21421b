type direction = Read | Write

type corruption =
  | Zeroes
  | Noise of int
  | Bit_flip of int
  | Byte_shift
  | Tweak of (bytes -> unit)

type kind = Fail_read | Fail_write | Corrupt of corruption
type persistence = Sticky | Transient of int | Until_write | After of int
type target = Block of int | Range of int * int | Blocks of int list | Whole_disk
type rule = {
  name : string;
  target : target;
  kind : kind;
  persistence : persistence;
}

(* Auto-names are derived from what the rule does, never from arm
   order, so attribution stays stable when the caller shuffles its
   arming sequence. *)
let kind_slug = function
  | Fail_read -> "fail_read"
  | Fail_write -> "fail_write"
  | Corrupt Zeroes -> "corrupt.zeroes"
  | Corrupt (Noise _) -> "corrupt.noise"
  | Corrupt (Bit_flip _) -> "corrupt.bit_flip"
  | Corrupt Byte_shift -> "corrupt.byte_shift"
  | Corrupt (Tweak _) -> "corrupt.tweak"

let target_slug = function
  | Block b -> Printf.sprintf "blk%d" b
  | Range (lo, hi) -> Printf.sprintf "blk%d-%d" lo hi
  | Blocks [] -> "blks-none"
  | Blocks (b :: _ as bs) -> Printf.sprintf "blks%dx%d" b (List.length bs)
  | Whole_disk -> "disk"

let rule ?name ?(persistence = Sticky) target kind =
  let name =
    match name with
    | Some n -> n
    | None -> kind_slug kind ^ "@" ^ target_slug target
  in
  { name; target; kind; persistence }

type armed = {
  id : int;
  r : rule;
  mutable count : int; (* committed injections; see [commit_firing] *)
  mutable seen : int; (* matching accesses, fired or not (for [After]) *)
  cleared : (int, unit) Hashtbl.t;
      (* [Until_write] only: blocks whose sector has been successfully
         rewritten — the drive remapped {e that} sector, the rest of
         the rule's target keeps failing (§2.3.3). *)
}
type rule_id = int

type outcome = Io_ok | Io_error of Iron_disk.Dev.error | Io_corrupted

type event = {
  seq : int;
  dir : direction;
  block : int;
  label : string;
  outcome : outcome;
}

type t = {
  below : Iron_disk.Dev.t;
  mutable rules : armed list; (* in arm order: oldest rule first *)
  mutable next_id : int;
  retired : (int, int) Hashtbl.t; (* fired counts of disarmed rules *)
  mutable classifier : int -> string;
  events : event Iron_obs.Ring.t; (* oldest first, bounded *)
  mutable seq : int;
  mutable tracing : bool;
  obs : Iron_obs.Obs.t option;
}

let default_trace_cap = 65536

let create ?obs ?(trace_cap = default_trace_cap) below =
  {
    below;
    rules = [];
    next_id = 0;
    retired = Hashtbl.create 8;
    classifier = (fun _ -> "?");
    events = Iron_obs.Ring.create trace_cap;
    seq = 0;
    tracing = true;
    obs;
  }

(* Rules are kept in arm order (oldest first) so the hot-path matcher
   walks [t.rules] directly — the old newest-first list needed a
   [List.rev] allocation on every single I/O. Arming is the rare
   operation, so it pays the O(rules) append. *)
let arm t r =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.rules <- t.rules @ [ { id; r; count = 0; seen = 0; cleared = Hashtbl.create 4 } ];
  id

(* Disarming retires the rule's fired count instead of dropping it:
   callers routinely tear the rule down and then ask how often it
   bit. *)
let retire t a = Hashtbl.replace t.retired a.id a.count

let disarm t id =
  t.rules <-
    List.filter
      (fun a ->
        if a.id = id then begin
          retire t a;
          false
        end
        else true)
      t.rules

let disarm_all t =
  List.iter (retire t) t.rules;
  t.rules <- []

let fired t id =
  match List.find_opt (fun a -> a.id = id) t.rules with
  | Some a -> a.count
  | None -> ( match Hashtbl.find_opt t.retired id with Some n -> n | None -> 0)

let set_classifier t f = t.classifier <- f
let trace t = Iron_obs.Ring.to_list t.events
let trace_dropped t = Iron_obs.Ring.dropped t.events
let clear_trace t = Iron_obs.Ring.clear t.events

(* Rules go without retiring: [retired] is what a long-lived injector
   would otherwise keep one entry of per job, forever. [next_id] keeps
   counting, so an old id never names a new rule. *)
let reset t =
  t.rules <- [];
  Hashtbl.reset t.retired;
  clear_trace t;
  t.seq <- 0

let set_tracing t on = t.tracing <- on

let matches_target target block =
  match target with
  | Block b -> b = block
  | Range (lo, hi) -> block >= lo && block <= hi
  | Blocks bs -> List.mem block bs
  | Whole_disk -> true

let matches_dir kind dir =
  match (kind, dir) with
  | Fail_read, Read | Corrupt _, Read | Fail_write, Write -> true
  | Fail_read, Write | Corrupt _, Write | Fail_write, Read -> false

(* Find the first armed rule matching this access. The decision is
   {e tentative}: nothing is charged against the rule's budget here.
   The caller commits the firing (via [commit_firing]) only once the
   injection actually happens — for [Fail_read]/[Fail_write] that is
   immediate, but a [Corrupt] rule whose underlying read then fails
   has injected nothing, and must neither bump [fired] nor consume a
   [Transient] budget. ([seen] still counts every matching access:
   that is exactly what [After n]'s dormancy is defined over.) *)
let firing t dir block =
  let rec go = function
    | [] -> None
    | a :: rest ->
        if matches_target a.r.target block
           && matches_dir a.r.kind dir
           && not
                (a.r.persistence = Until_write && Hashtbl.mem a.cleared block)
        then begin
          a.seen <- a.seen + 1;
          match a.r.persistence with
          | Sticky | Until_write -> Some a
          | Transient n when a.count < n -> Some a
          | After n when a.seen > n -> Some a
          | Transient _ | After _ -> go rest
        end
        else go rest
  in
  go t.rules (* oldest rule wins, deterministically *)

let commit_firing a = a.count <- a.count + 1

(* A successful write remaps {e that} sector: read faults marked
   [Until_write] covering the block stop firing for the block alone.
   The rest of a [Range]/[Blocks]/[Whole_disk] target keeps failing —
   one remapped sector does not heal a whole media scratch. *)
let clear_on_write t block =
  List.iter
    (fun a ->
      if a.r.persistence = Until_write && matches_target a.r.target block then
        Hashtbl.replace a.cleared block ())
    t.rules

let record t dir block outcome =
  if t.tracing then begin
    let seq = t.seq in
    t.seq <- seq + 1;
    Iron_obs.Ring.push t.events
      { seq; dir; block; label = t.classifier block; outcome };
    (* Double-emit into the observability layer, so the I/O trace shows
       up alongside file-system spans in exported traces. *)
    match t.obs with
    | None -> ()
    | Some obs ->
        let d = match dir with Read -> "read" | Write -> "write" in
        let name =
          match outcome with
          | Io_ok -> d ^ ".ok"
          | Io_error e ->
              d ^ "." ^ String.lowercase_ascii (Iron_disk.Dev.error_to_string e)
          | Io_corrupted -> d ^ ".corrupt"
        in
        Iron_obs.Obs.event obs ~subsystem:"fault.io" ~blocks:(block, block) name
  end

(* Count injections (as opposed to propagated device errors) under
   fault.inject.*; fired when an armed rule actually bites. The rule's
   stable name is noted in the ambient provenance tag (so a recorded
   write carries the rule that mangled it) and surfaced as an obs
   event plus a per-rule [fault.inject.<name>] counter alongside the
   aggregate per-kind one. *)
let record_injection t a block =
  Iron_obs.Prov.note_rule a.r.name;
  match t.obs with
  | None -> ()
  | Some obs ->
      let agg =
        match a.r.kind with
        | Fail_read -> "fail_read"
        | Fail_write -> "fail_write"
        | Corrupt _ -> "corrupt"
      in
      Iron_obs.Obs.incr obs ("fault.inject." ^ agg);
      Iron_obs.Obs.event obs ~subsystem:"fault.inject" ~blocks:(block, block)
        a.r.name

let corrupt_block corruption data =
  match corruption with
  | Zeroes -> Bytes.fill data 0 (Bytes.length data) '\000'
  | Noise seed ->
      let rng = Iron_util.Prng.create (seed lxor 0x5EED) in
      Iron_util.Prng.fill_bytes rng data
  | Bit_flip bit ->
      let off = bit / 8 mod Bytes.length data in
      let b = Char.code (Bytes.get data off) in
      Bytes.set data off (Char.chr (b lxor (1 lsl (bit mod 8))))
  | Byte_shift ->
      let n = Bytes.length data in
      if n > 1 then begin
        let last = Bytes.get data (n - 1) in
        Bytes.blit data 0 data 1 (n - 1);
        Bytes.set data 0 last
      end
  | Tweak f -> f data

(* The one read path: the firing decision, the corruption (in the
   caller's buffer), the trace event and the injection counters.
   [read] is [read_into] on a fresh block, so the two are
   indistinguishable to every layer above and below. *)
let read_into t block buf =
  match firing t Read block with
  | Some ({ r = { kind = Fail_read; _ }; _ } as a) ->
      commit_firing a;
      record_injection t a block;
      record t Read block (Io_error Iron_disk.Dev.Eio);
      Error Iron_disk.Dev.Eio
  | Some ({ r = { kind = Corrupt c; _ }; _ } as a) -> (
      match t.below.Iron_disk.Dev.read_into block buf with
      | Ok () ->
          corrupt_block c buf;
          commit_firing a;
          record_injection t a block;
          record t Read block Io_corrupted;
          Ok ()
      | Error e ->
          record t Read block (Io_error e);
          Error e)
  | Some { r = { kind = Fail_write; _ }; _ } | None -> (
      match t.below.Iron_disk.Dev.read_into block buf with
      | Ok () as ok ->
          record t Read block Io_ok;
          ok
      | Error e ->
          record t Read block (Io_error e);
          Error e)

let read t block =
  let buf = Bytes.create t.below.Iron_disk.Dev.block_size in
  match read_into t block buf with Ok () -> Ok buf | Error e -> Error e

let write t block data =
  match firing t Write block with
  | Some ({ r = { kind = Fail_write; _ }; _ } as a) ->
      commit_firing a;
      record_injection t a block;
      record t Write block (Io_error Iron_disk.Dev.Eio);
      Error Iron_disk.Dev.Eio
  | Some { r = { kind = Fail_read | Corrupt _; _ }; _ } | None -> (
      match t.below.Iron_disk.Dev.write block data with
      | Ok () ->
          clear_on_write t block;
          record t Write block Io_ok;
          Ok ()
      | Error e ->
          record t Write block (Io_error e);
          Error e)

let dev t =
  {
    Iron_disk.Dev.block_size = t.below.Iron_disk.Dev.block_size;
    num_blocks = t.below.Iron_disk.Dev.num_blocks;
    read = read t;
    read_into = read_into t;
    write = write t;
    sync = t.below.Iron_disk.Dev.sync;
    now = t.below.Iron_disk.Dev.now;
  }

let pp_event fmt e =
  let dir = match e.dir with Read -> "R" | Write -> "W" in
  let out =
    match e.outcome with
    | Io_ok -> "ok"
    | Io_error err -> Iron_disk.Dev.error_to_string err
    | Io_corrupted -> "CORRUPT"
  in
  Format.fprintf fmt "#%d %s blk=%d type=%s -> %s" e.seq dir e.block e.label out

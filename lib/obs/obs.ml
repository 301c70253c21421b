(* The observability context: per-domain metric cells merged at
   snapshot (shared state is either immutable or owned by exactly one
   domain, and rendezvous happens under a lock), one mutex-guarded
   span ring, one clock.

   Nothing here reads wall-clock time: all timestamps come from the
   installed simulated clock, which is what keeps snapshots and traces
   byte-stable across runs and across worker counts. *)

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

type hist_cell = {
  h_bounds : float array;
  h_counts : int array; (* length = Array.length h_bounds + 1 *)
  mutable h_sum : float;
  mutable h_n : int;
}

type cell = Ccell of int ref | Gcell of float ref | Hcell of hist_cell
type store = (string, cell) Hashtbl.t

type span = {
  seq : int;
  tid : int;
  subsystem : string;
  name : string;
  t0 : float;
  dur : float;
  blk_lo : int;
  blk_hi : int;
  instant : bool;
}

type t = {
  id : int;
  m : Mutex.t;
  mutable stores : store list; (* every domain's cell table *)
  span_ring : span Ring.t;
  mutable seq : int;
  mutable clock : unit -> float;
}

let ids = Atomic.make 0
let span_cap = 65536

let create () =
  {
    id = Atomic.fetch_and_add ids 1;
    m = Mutex.create ();
    stores = [];
    span_ring = Ring.create span_cap;
    seq = 0;
    clock = (fun () -> 0.0);
  }

let set_clock t f = t.clock <- f

(* ------------------------------------------------------------------ *)
(* Per-domain stores                                                   *)
(* ------------------------------------------------------------------ *)

(* One domain-local table mapping context id -> that domain's store.
   Contexts register their stores under [t.m] so [snapshot] can find
   them all. *)
let dls_stores : (int, store) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let local_store t =
  let map = Domain.DLS.get dls_stores in
  match Hashtbl.find_opt map t.id with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 32 in
      Hashtbl.replace map t.id s;
      Mutex.lock t.m;
      t.stores <- s :: t.stores;
      Mutex.unlock t.m;
      s

let release t = Hashtbl.remove (Domain.DLS.get dls_stores) t.id

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let kind_err path want = invalid_arg ("Obs: " ^ path ^ " is not a " ^ want)

let add t path n =
  let s = local_store t in
  match Hashtbl.find_opt s path with
  | Some (Ccell r) -> r := !r + n
  | Some _ -> kind_err path "counter"
  | None -> Hashtbl.replace s path (Ccell (ref n))

let incr t path = add t path 1

let set_gauge t path v =
  let s = local_store t in
  match Hashtbl.find_opt s path with
  | Some (Gcell r) -> r := v
  | Some _ -> kind_err path "gauge"
  | None -> Hashtbl.replace s path (Gcell (ref v))

let default_buckets =
  [| 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 50.0; 100.0; 500.0; 1000.0; 5000.0 |]

(* First bucket whose upper bound is >= v; [Array.length bounds] is the
   overflow bucket. Bucket arrays are tiny, so a linear scan wins. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe ?(buckets = default_buckets) t path v =
  let s = local_store t in
  let h =
    match Hashtbl.find_opt s path with
    | Some (Hcell h) -> h
    | Some _ -> kind_err path "histogram"
    | None ->
        let h =
          {
            h_bounds = buckets;
            h_counts = Array.make (Array.length buckets + 1) 0;
            h_sum = 0.0;
            h_n = 0;
          }
        in
        Hashtbl.replace s path (Hcell h);
        h
  in
  let i = bucket_index h.h_bounds v in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_n <- h.h_n + 1

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let emit t ~subsystem ~name ~t0 ~dur ~blocks ~instant =
  let blk_lo, blk_hi = match blocks with Some (a, b) -> (a, b) | None -> (-1, -1) in
  Mutex.lock t.m;
  let seq = t.seq in
  t.seq <- seq + 1;
  Ring.push t.span_ring
    { seq; tid = 0; subsystem; name; t0; dur; blk_lo; blk_hi; instant };
  Mutex.unlock t.m

let event t ~subsystem ?blocks name =
  emit t ~subsystem ~name ~t0:(t.clock ()) ~dur:0.0 ~blocks ~instant:true;
  incr t (subsystem ^ "." ^ name)

let span t ~subsystem ?blocks name f =
  let t0 = t.clock () in
  match f () with
  | v ->
      let dur = t.clock () -. t0 in
      emit t ~subsystem ~name ~t0 ~dur ~blocks ~instant:false;
      incr t (subsystem ^ "." ^ name);
      observe t (subsystem ^ "." ^ name ^ ".ms") dur;
      v
  | exception e ->
      let dur = t.clock () -. t0 in
      emit t ~subsystem ~name ~t0 ~dur ~blocks ~instant:false;
      incr t (subsystem ^ "." ^ name ^ ".raised");
      raise e

let spans t =
  Mutex.lock t.m;
  let l = Ring.to_list t.span_ring in
  Mutex.unlock t.m;
  l

let spans_dropped t = Ring.dropped t.span_ring
let with_tid tid sps = List.map (fun s -> { s with tid }) sps

(* ------------------------------------------------------------------ *)
(* Ambient context                                                     *)
(* ------------------------------------------------------------------ *)

let dls_ambient : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let ambient () = !(Domain.DLS.get dls_ambient)

let with_ambient t f =
  let slot = Domain.DLS.get dls_ambient in
  let saved = !slot in
  slot := Some t;
  Fun.protect ~finally:(fun () -> slot := saved) f

let span_a ~subsystem ?blocks name f =
  match ambient () with
  | None -> f ()
  | Some t -> span t ~subsystem ?blocks name f

let event_a ~subsystem ?blocks name =
  match ambient () with None -> () | Some t -> event t ~subsystem ?blocks name

let incr_a path =
  match ambient () with None -> () | Some t -> incr t path

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type histogram = {
  bounds : float array;
  counts : int array;
  sum : float;
  count : int;
}

type value = Counter of int | Gauge of float | Histogram of histogram
type snapshot = (string * value) list

let freeze = function
  | Ccell r -> Counter !r
  | Gcell r -> Gauge !r
  | Hcell h ->
      Histogram
        {
          bounds = Array.copy h.h_bounds;
          counts = Array.copy h.h_counts;
          sum = h.h_sum;
          count = h.h_n;
        }

let merge_value path a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (Float.max x y)
  | Histogram x, Histogram y ->
      if x.bounds <> y.bounds then
        invalid_arg ("Obs.merge: bucket layouts differ at " ^ path);
      Histogram
        {
          bounds = x.bounds;
          counts = Array.map2 ( + ) x.counts y.counts;
          sum = x.sum +. y.sum;
          count = x.count + y.count;
        }
  | _ -> invalid_arg ("Obs.merge: metric kinds differ at " ^ path)

let sorted_of_table acc =
  Hashtbl.fold (fun path v l -> (path, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let fold_into acc path v =
  match Hashtbl.find_opt acc path with
  | None -> Hashtbl.replace acc path v
  | Some prev -> Hashtbl.replace acc path (merge_value path prev v)

let snapshot t =
  Mutex.lock t.m;
  let stores = t.stores in
  Mutex.unlock t.m;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.iter (fun path c -> fold_into acc path (freeze c)) s)
    (List.rev stores);
  sorted_of_table acc

let merge snaps =
  let acc = Hashtbl.create 64 in
  List.iter (List.iter (fun (path, v) -> fold_into acc path v)) snaps;
  sorted_of_table acc

type recording = { metrics : snapshot; spans : span list; spans_dropped : int }

let finish t =
  let r = { metrics = snapshot t; spans = spans t; spans_dropped = spans_dropped t } in
  release t;
  r

let lanes rs =
  {
    metrics = merge (List.map (fun r -> r.metrics) rs);
    spans = List.concat (List.mapi (fun i r -> with_tid i r.spans) rs);
    spans_dropped = List.fold_left (fun n r -> n + r.spans_dropped) 0 rs;
  }

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let pp_value fmt = function
  | Counter n -> Format.fprintf fmt "%d" n
  | Gauge g -> Format.fprintf fmt "%.3f" g
  | Histogram h ->
      Format.fprintf fmt "n=%d sum=%.3fms" h.count h.sum;
      Array.iteri
        (fun i c ->
          if c > 0 then
            if i = Array.length h.bounds then Format.fprintf fmt " +Inf:%d" c
            else Format.fprintf fmt " le%g:%d" h.bounds.(i) c)
        h.counts

let pp_snapshot fmt snap =
  Format.fprintf fmt "%-42s %s@." "metric" "value";
  Format.fprintf fmt "%-42s %s@." (String.make 42 '-') "-----";
  List.iter
    (fun (path, v) -> Format.fprintf fmt "%-42s %a@." path pp_value v)
    snap

(* Minimal JSON helpers: paths and names are code-controlled ASCII, but
   escape defensively so the output is always valid JSON. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6f" f

let jsonl_of_snapshot snap =
  let b = Buffer.create 1024 in
  List.iter
    (fun (path, v) ->
      (match v with
      | Counter n ->
          Buffer.add_string b
            (Printf.sprintf "{\"type\":\"counter\",\"path\":%s,\"value\":%d}"
               (json_string path) n)
      | Gauge g ->
          Buffer.add_string b
            (Printf.sprintf "{\"type\":\"gauge\",\"path\":%s,\"value\":%s}"
               (json_string path) (json_float g))
      | Histogram h ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"type\":\"histogram\",\"path\":%s,\"count\":%d,\"sum\":%s,\"buckets\":["
               (json_string path) h.count (json_float h.sum));
          Array.iteri
            (fun i c ->
              if i > 0 then Buffer.add_char b ',';
              let le =
                if i = Array.length h.bounds then "\"+Inf\""
                else json_float h.bounds.(i)
              in
              Buffer.add_string b (Printf.sprintf "{\"le\":%s,\"n\":%d}" le c))
            h.counts;
          Buffer.add_string b "]}");
      Buffer.add_char b '\n')
    snap;
  Buffer.contents b

let jsonl_of_spans ?(dropped = 0) sps =
  let b = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"subsystem\":%s,\"name\":%s,\"tid\":%d,\"seq\":%d,\"t0_ms\":%s,\"dur_ms\":%s,\"block_lo\":%d,\"block_hi\":%d,\"instant\":%b}\n"
           (json_string s.subsystem) (json_string s.name) s.tid s.seq
           (json_float s.t0) (json_float s.dur) s.blk_lo s.blk_hi s.instant))
    sps;
  if dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf "{\"meta\":\"spans_dropped\",\"dropped\":%d}\n" dropped);
  Buffer.contents b

let chrome_trace ?(dropped = []) procs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  let first = ref true in
  let add_record s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n";
    Buffer.add_string b s
  in
  List.iteri
    (fun i (proc_name, sps) ->
      let pid = i + 1 in
      add_record
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%s}}"
           pid (json_string proc_name));
      List.iter
        (fun s ->
          let args =
            if s.blk_lo >= 0 then
              Printf.sprintf "{\"seq\":%d,\"block_lo\":%d,\"block_hi\":%d}"
                s.seq s.blk_lo s.blk_hi
            else Printf.sprintf "{\"seq\":%d}" s.seq
          in
          if s.instant then
            add_record
              (Printf.sprintf
                 "{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"args\":%s}"
                 (json_string s.name) (json_string s.subsystem) pid s.tid
                 (json_float (s.t0 *. 1000.0))
                 args)
          else
            add_record
              (Printf.sprintf
                 "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":%s}"
                 (json_string s.name) (json_string s.subsystem) pid s.tid
                 (json_float (s.t0 *. 1000.0))
                 (json_float (s.dur *. 1000.0))
                 args))
        sps;
      match List.assoc_opt proc_name dropped with
      | Some n when n > 0 ->
          add_record
            (Printf.sprintf
               "{\"name\":\"spans_dropped\",\"cat\":\"meta\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":0,\"ts\":0,\"args\":{\"dropped\":%d}}"
               pid n)
      | Some _ | None -> ())
    procs;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

module Dev = Iron_disk.Dev
module Fs = Iron_vfs.Fs
module Json = Iron_report.Json

(* The unboxed, allocation-free entry of [Unix.gettimeofday]: a boxed
   float per clock read would show up in the very word counts being
   measured. *)
external now : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

type layer = int

let layer_names =
  [|
    "vfs.mount";
    "vfs.sync";
    "vfs.read";
    "vfs.write";
    "vfs.ns";
    "vfs.admin";
    "dev.read";
    "dev.write";
    "dev.sync";
    "report";
  |]

let vfs_mount = 0
let vfs_sync = 1
let vfs_read = 2
let vfs_write = 3
let vfs_ns = 4
let vfs_admin = 5
let dev_read = 6
let dev_write = 7
let dev_sync = 8
let report_layer = 9
let n_layers = Array.length layer_names
let is_dev l = l >= dev_read && l <= dev_sync
let is_vfs l = l <= vfs_admin

(* An accumulator is two flat float arrays, so that a traced call
   touches a few cache lines and allocates nothing: [frames] holds the
   stack of open calls, one 8-float frame each (integers are stored as
   floats, exactly); [totals] holds each layer's self time, words,
   calls and errors. *)
let max_depth = 32
let frame = 8
let fr_t0 = 0
let fr_w0 = 1
let fr_child_s = 2
let fr_child_w = 3
let fr_dev_s = 4
let fr_layer = 5
let fr_dev_calls = 6
let fr_span = 7 (* span slot, or -1 when the call is not recorded *)
let tot = 4
let tot_self_s = 0
let tot_words = 1
let tot_calls = 2
let tot_errors = 3

type acc = {
  tid : int;
  mutable depth : int;
  frames : float array;
  totals : float array;
}

let create_acc_tid tid =
  {
    tid;
    depth = 0;
    frames = Array.make (max_depth * frame) 0.;
    totals = Array.make (n_layers * tot) 0.;
  }

let create_acc () = create_acc_tid 0

(* Recorded spans live in flat arrays allocated once, on the first
   recorded request: a list of span records kept live for the rest of
   the run slowed every later major collection. A span claims a slot
   with one atomic increment; slots past [span_cap] are dropped. Root
   spans (one per recorded request) have layer -1 and a label. *)
let span_cap = 50_000

type store = {
  s_parent : int array;
  s_req : int array;
  s_layer : int array;
  s_tid : int array;
  s_dev_calls : int array;
  s_t0 : float array;
  s_t1 : float array;
  s_dev_s : float array;
  mutable s_roots : (int * string) list;
}

let store =
  lazy
    (let ints () = Array.make span_cap 0
     and floats () = Array.make span_cap 0. in
     {
       s_parent = ints ();
       s_req = ints ();
       s_layer = ints ();
       s_tid = ints ();
       s_dev_calls = ints ();
       s_t0 = floats ();
       s_t1 = floats ();
       s_dev_s = floats ();
       s_roots = [];
     })

(* The request being recorded (-1: none) and its root span's slot. *)
let recording = Atomic.make (-1)
let root_span = Atomic.make (-1)
let next_slot = Atomic.make 0
let spans_dropped = Atomic.make 0

let claim () =
  let slot = Atomic.fetch_and_add next_slot 1 in
  if slot < span_cap then slot
  else begin
    Atomic.incr spans_dropped;
    -1
  end

let new_span_id l =
  if is_dev l || Atomic.get recording < 0 then -1 else claim ()

let record st slot ~parent ~layer ~tid ~t0 ~t1 ~dev_calls ~dev_s =
  st.s_parent.(slot) <- parent;
  st.s_req.(slot) <- Atomic.get recording;
  st.s_layer.(slot) <- layer;
  st.s_tid.(slot) <- tid;
  st.s_dev_calls.(slot) <- dev_calls;
  st.s_t0.(slot) <- t0;
  st.s_t1.(slot) <- t1;
  st.s_dev_s.(slot) <- dev_s

let[@inline] push_at acc l ~t ~w =
  let d = acc.depth in
  if d >= max_depth then failwith "tracer: calls nested too deeply";
  let f = acc.frames and o = d * frame in
  f.(o + fr_t0) <- t;
  f.(o + fr_w0) <- w;
  f.(o + fr_child_s) <- 0.;
  f.(o + fr_child_w) <- 0.;
  f.(o + fr_dev_s) <- 0.;
  f.(o + fr_layer) <- float_of_int l;
  f.(o + fr_dev_calls) <- 0.;
  f.(o + fr_span) <- float_of_int (new_span_id l);
  acc.depth <- d + 1

let record_span acc o slot ~t =
  let f = acc.frames in
  let parent = if o > 0 then int_of_float f.(o - frame + fr_span) else -1 in
  record (Lazy.force store) slot
    ~parent:(if parent >= 0 then parent else Atomic.get root_span)
    ~layer:(int_of_float f.(o + fr_layer))
    ~tid:acc.tid ~t0:f.(o + fr_t0) ~t1:t
    ~dev_calls:(int_of_float f.(o + fr_dev_calls))
    ~dev_s:f.(o + fr_dev_s)

let[@inline] pop_at acc ~failed ~t ~w =
  let d = acc.depth - 1 in
  if d < 0 then failwith "tracer: no open call";
  acc.depth <- d;
  let f = acc.frames and o = d * frame in
  let l = int_of_float f.(o + fr_layer) in
  let incl_s = t -. f.(o + fr_t0) and incl_w = w -. f.(o + fr_w0) in
  let a = acc.totals and k = l * tot in
  a.(k + tot_self_s) <- a.(k + tot_self_s) +. (incl_s -. f.(o + fr_child_s));
  a.(k + tot_words) <- a.(k + tot_words) +. (incl_w -. f.(o + fr_child_w));
  a.(k + tot_calls) <- a.(k + tot_calls) +. 1.;
  if failed then a.(k + tot_errors) <- a.(k + tot_errors) +. 1.;
  if d > 0 then begin
    let p = o - frame in
    f.(p + fr_child_s) <- f.(p + fr_child_s) +. incl_s;
    f.(p + fr_child_w) <- f.(p + fr_child_w) +. incl_w;
    if is_dev l then begin
      f.(p + fr_dev_calls) <- f.(p + fr_dev_calls) +. 1.;
      f.(p + fr_dev_s) <- f.(p + fr_dev_s) +. incl_s
    end
  end;
  let slot = int_of_float f.(o + fr_span) in
  if slot >= 0 then record_span acc o slot ~t

type totals = {
  calls : int array;
  errors : int array;
  self_s : float array;
  words : float array;
}

let zero_totals () =
  {
    calls = Array.make n_layers 0;
    errors = Array.make n_layers 0;
    self_s = Array.make n_layers 0.;
    words = Array.make n_layers 0.;
  }

let add_into (t : totals) (a : acc) =
  for l = 0 to n_layers - 1 do
    let k = l * tot in
    t.calls.(l) <- t.calls.(l) + int_of_float a.totals.(k + tot_calls);
    t.errors.(l) <- t.errors.(l) + int_of_float a.totals.(k + tot_errors);
    t.self_s.(l) <- t.self_s.(l) +. a.totals.(k + tot_self_s);
    t.words.(l) <- t.words.(l) +. a.totals.(k + tot_words)
  done

let acc_totals a =
  let t = zero_totals () in
  add_into t a;
  t

(* Every domain that ever made a traced call registers its accumulator
   here; the pool's worker domains come and go, their totals stay. *)
let registry : acc list ref = ref []
let registry_m = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let a = create_acc_tid (Domain.self () :> int) in
      Mutex.protect registry_m (fun () -> registry := a :: !registry);
      a)

let totals () =
  let t = zero_totals () in
  List.iter (add_into t) (Mutex.protect registry_m (fun () -> !registry));
  t

let[@inline] enter l =
  let acc = Domain.DLS.get key in
  push_at acc l ~t:(now ()) ~w:(Gc.minor_words ());
  acc

let[@inline] leave acc ~failed =
  pop_at acc ~failed ~t:(now ()) ~w:(Gc.minor_words ())

let call l f =
  let acc = enter l in
  match f () with
  | v ->
      leave acc ~failed:false;
      v
  | exception e ->
      leave acc ~failed:true;
      raise e

(* Result-returning calls count [Error] as a failed call. The one- and
   two-argument forms take the function and its arguments separately,
   so the per-block device path allocates no closure. *)
let call1 l f x =
  let acc = enter l in
  match f x with
  | Ok _ as r ->
      leave acc ~failed:false;
      r
  | Error _ as r ->
      leave acc ~failed:true;
      r
  | exception e ->
      leave acc ~failed:true;
      raise e

let call_r l f = call1 l f ()

let call2 l f x y =
  let acc = enter l in
  match f x y with
  | Ok _ as r ->
      leave acc ~failed:false;
      r
  | Error _ as r ->
      leave acc ~failed:true;
      r
  | exception e ->
      leave acc ~failed:true;
      raise e

let report f = call report_layer f

let dev (d : Dev.t) =
  {
    d with
    Dev.read = (fun b -> call1 dev_read d.Dev.read b);
    read_into = (fun b buf -> call2 dev_read d.Dev.read_into b buf);
    write = (fun b data -> call2 dev_write d.Dev.write b data);
    sync = (fun () -> call1 dev_sync d.Dev.sync ());
  }

module Wrap (F : Fs.S) : Fs.S with type t = F.t = struct
  include F

  (* Only building the block-type oracle is timed: a per-block lookup
     costs about as much as the two clock reads that would time it. *)
  let classifier raw = call vfs_admin (fun () -> F.classifier raw)

  let mkfs d = call_r vfs_admin (fun () -> F.mkfs (dev d))
  let mount d = call_r vfs_mount (fun () -> F.mount (dev d))
  let unmount t = call_r vfs_admin (fun () -> F.unmount t)
  let access t p = call_r vfs_ns (fun () -> F.access t p)
  let chdir t p = call_r vfs_ns (fun () -> F.chdir t p)
  let chroot t p = call_r vfs_ns (fun () -> F.chroot t p)
  let stat t p = call_r vfs_ns (fun () -> F.stat t p)
  let lstat t p = call_r vfs_ns (fun () -> F.lstat t p)
  let statfs t = call_r vfs_ns (fun () -> F.statfs t)
  let open_ t p m = call_r vfs_ns (fun () -> F.open_ t p m)
  let close t fd = call_r vfs_ns (fun () -> F.close t fd)
  let creat t p = call_r vfs_ns (fun () -> F.creat t p)
  let read t fd ~off ~len = call_r vfs_read (fun () -> F.read t fd ~off ~len)
  let write t fd ~off b = call_r vfs_write (fun () -> F.write t fd ~off b)
  let readlink t p = call_r vfs_ns (fun () -> F.readlink t p)
  let getdirentries t p = call_r vfs_ns (fun () -> F.getdirentries t p)
  let link t a b = call_r vfs_ns (fun () -> F.link t a b)
  let symlink t a b = call_r vfs_ns (fun () -> F.symlink t a b)
  let mkdir t p = call_r vfs_ns (fun () -> F.mkdir t p)
  let rmdir t p = call_r vfs_ns (fun () -> F.rmdir t p)
  let unlink t p = call_r vfs_ns (fun () -> F.unlink t p)
  let rename t a b = call_r vfs_ns (fun () -> F.rename t a b)
  let truncate t p n = call_r vfs_ns (fun () -> F.truncate t p n)
  let chmod t p m = call_r vfs_ns (fun () -> F.chmod t p m)
  let chown t p u g = call_r vfs_ns (fun () -> F.chown t p u g)
  let utimes t p a m = call_r vfs_ns (fun () -> F.utimes t p a m)
  let fsync t fd = call_r vfs_sync (fun () -> F.fsync t fd)
  let sync t = call_r vfs_sync (fun () -> F.sync t)
end

let brand (Fs.Brand (module F)) =
  let module W = Wrap (F) in
  Fs.Brand (module W)

let begin_request ~id =
  ignore (Lazy.force store);
  let slot = claim () in
  if slot >= 0 then begin
    Atomic.set root_span slot;
    Atomic.set recording id
  end

let end_request ~label ~t0 ~t1 =
  let slot = Atomic.get root_span in
  if slot >= 0 then begin
    let st = Lazy.force store in
    record st slot ~parent:(-1) ~layer:(-1)
      ~tid:(Domain.self () :> int)
      ~t0 ~t1 ~dev_calls:0 ~dev_s:0.;
    st.s_roots <- (slot, label) :: st.s_roots;
    Atomic.set recording (-1);
    Atomic.set root_span (-1)
  end

let chrome_trace () =
  let st = Lazy.force store in
  let n = min span_cap (Atomic.get next_slot) in
  let origin =
    if n = 0 then 0.
    else Array.fold_left Float.min infinity (Array.sub st.s_t0 0 n)
  in
  let us seconds = Json.Float (Float.round (seconds *. 1e7) /. 10.) in
  let event slot =
    let layer = st.s_layer.(slot) in
    let name =
      if layer < 0 then
        Option.value ~default:"request" (List.assoc_opt slot st.s_roots)
      else layer_names.(layer)
    in
    Json.Assoc
      [
        ("name", Json.String name);
        ("cat", Json.String (if layer < 0 then "request" else name));
        ("ph", Json.String "X");
        ("ts", us (st.s_t0.(slot) -. origin));
        ("dur", us (st.s_t1.(slot) -. st.s_t0.(slot)));
        ("pid", Json.Int 1);
        ("tid", Json.Int st.s_tid.(slot));
        ( "args",
          Json.Assoc
            [
              ("id", Json.Int slot);
              ("parent", Json.Int st.s_parent.(slot));
              ("req", Json.Int st.s_req.(slot));
              ("dev_calls", Json.Int st.s_dev_calls.(slot));
              ("dev_ms", Json.Float (st.s_dev_s.(slot) *. 1000.));
            ] );
      ]
  in
  Json.to_string ~indent:false
    (Json.Assoc
       [
         ("traceEvents", Json.List (List.init n event));
         ( "otherData",
           Json.Assoc
             [
               ("spans", Json.Int n);
               ("spans_dropped", Json.Int (Atomic.get spans_dropped));
             ] );
       ])

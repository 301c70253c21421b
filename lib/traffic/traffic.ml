(* Multi-tenant traffic simulation. See traffic.mli for the model.

   Two phases per brand:

   - {e load}: thousands of simulated client sessions drive the
     mounted file system through the frozen VFS signature on one
     shared sparse volume. A discrete-event scheduler pops requests in
     (time, client, seq) order; the disk is a single FIFO server whose
     service times come from [Model] via the device clock, so a
     request's latency is queueing delay plus service. Everything —
     arrivals (von Neumann exponential sampling, comparisons only),
     working-set choice (quarter-quantized Zipf), payload bytes — is
     drawn from seeded PRNGs with no libm transcendental in sight, so
     a given [--seed] yields byte-identical reports on any machine at
     any [-j];

   - {e blast radius}: the per-tenant crash campaign. A scaled-down
     slice of the same traffic races on a small volume through a
     [Wlog] recorder; every crash state a fail-partial disk could
     leave is enumerated and checked against each tenant's durable
     files. A lost file names its victim tenant; the provenance of the
     earliest dropped write names the culprit tenant — when they
     differ, one tenant's crash took another tenant's data with it
     (the shared-journal story of §6.1). The check fans out over
     [Pool] with order-preserving slots, so [-j] cannot change the
     report. *)

module Memdisk = Iron_disk.Memdisk
module Dev = Iron_disk.Dev
module Fs = Iron_vfs.Fs
module Klog = Iron_vfs.Klog
module Obs = Iron_obs.Obs
module Prov = Iron_obs.Prov
module Prng = Iron_util.Prng
module Pool = Iron_util.Pool
module Explore = Iron_crash.Explore

type arrival = Poisson | Closed | Mixed

let arrival_to_string = function
  | Poisson -> "poisson"
  | Closed -> "closed"
  | Mixed -> "mixed"

let arrival_of_string = function
  | "poisson" -> Some Poisson
  | "closed" -> Some Closed
  | "mixed" -> Some Mixed
  | _ -> None

type config = {
  clients : int;
  tenants : int;
  duration_ms : int;  (* simulated measurement window *)
  zipf : float;  (* working-set skew; quantized to quarters *)
  seed : int;
  num_blocks : int;  (* logical volume size *)
  files_per_tenant : int;
  arrival : arrival;
  think_ms : int;  (* closed-loop think time *)
  rate_hz : int;  (* open-loop offered load, ops/sim-sec, all clients *)
  states : int;  (* crash states per tenant campaign *)
}

let default =
  {
    clients = 1000;
    tenants = 4;
    duration_ms = 10_000;
    zipf = 0.75;
    seed = 42;
    num_blocks = 262_144 (* 1 GiB of 4 KiB blocks *);
    files_per_tenant = 16;
    arrival = Mixed;
    think_ms = 2_000;
    rate_hz = 80;
    states = 1000;
  }

type tenant_stat = { ts_tenant : int; ts_ops : int; ts_viol : int; ts_cross : int }

type report = {
  r_fs : string;
  r_clients : int;
  r_tenants : int;
  r_seed : int;
  r_zipf_milli : int;
  r_arrival : string;
  r_duration_ms : int;
  r_num_blocks : int;
  r_ops : int;
  r_errors : int;
  r_ops_per_sim_sec : int;
  r_p50_us : int;
  r_p99_us : int;
  r_op_counts : (string * int) list;
  r_chunks_touched : int;
  r_blocks_touched : int;
  r_states : int;
  r_tc : int;
  r_viol : int;
  r_cross : int;
  r_mount_viol : int;
  r_tenant : tenant_stat list;
}

(* ------------------------------------------------------------------ *)
(* Deterministic randomness without libm                               *)
(* ------------------------------------------------------------------ *)

(* Von Neumann (1951): a unit-mean exponential variate from uniform
   draws and comparisons only. pow/exp/log carry no cross-platform
   rounding guarantee; this does. *)
let exp_draw prng =
  let rec attempt n =
    let u1 = Prng.float prng 1.0 in
    let rec run prev k =
      let u = Prng.float prng 1.0 in
      if u < prev then run u (k + 1) else k
    in
    if run u1 1 land 1 = 1 then float_of_int n +. u1 else attempt (n + 1)
  in
  attempt 0

(* ------------------------------------------------------------------ *)
(* The event queue                                                     *)
(* ------------------------------------------------------------------ *)

(* Binary min-heap ordered by (time, client, seq) — the deterministic
   tie-break that makes the schedule a pure function of the seed. *)
module Pq = struct
  type ev = { at : float; client : int; seq : int }

  type t = { mutable a : ev array; mutable n : int }

  let nil = { at = 0.0; client = -1; seq = -1 }
  let create () = { a = Array.make 1024 nil; n = 0 }

  let lt x y =
    x.at < y.at
    || (x.at = y.at
       && (x.client < y.client || (x.client = y.client && x.seq < y.seq)))

  let push t e =
    if t.n = Array.length t.a then begin
      let bigger = Array.make (2 * t.n) nil in
      Array.blit t.a 0 bigger 0 t.n;
      t.a <- bigger
    end;
    t.a.(t.n) <- e;
    let i = ref t.n in
    t.n <- t.n + 1;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      lt t.a.(!i) t.a.(p)
      &&
      (let tmp = t.a.(p) in
       t.a.(p) <- t.a.(!i);
       t.a.(!i) <- tmp;
       i := p;
       true)
    do
      ()
    done

  let pop t =
    let top = t.a.(0) in
    t.n <- t.n - 1;
    t.a.(0) <- t.a.(t.n);
    t.a.(t.n) <- nil;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < t.n && lt t.a.(l) t.a.(!s) then s := l;
      if r < t.n && lt t.a.(r) t.a.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        let tmp = t.a.(!s) in
        t.a.(!s) <- t.a.(!i);
        t.a.(!i) <- tmp;
        i := !s
      end
    done;
    top

  let is_empty t = t.n = 0
end

(* ------------------------------------------------------------------ *)
(* The load phase                                                      *)
(* ------------------------------------------------------------------ *)

(* Latency buckets, 50 us to 60 simulated seconds: saturated closed
   loops live in the long tail and the p99 must not fall off the
   histogram. *)
let lat_buckets =
  [|
    0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 3.0; 5.0; 8.0; 12.0; 20.0; 30.0; 50.0;
    80.0; 120.0; 200.0; 300.0; 500.0; 800.0; 1200.0; 2000.0; 3000.0; 5000.0;
    8000.0; 12000.0; 20000.0; 30000.0; 60000.0;
  |]

let quantile_us (h : Obs.histogram) q =
  if h.Obs.count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (q *. float_of_int h.Obs.count) + 1 in
      if r > h.Obs.count then h.Obs.count else r
    in
    let n = Array.length h.Obs.bounds in
    let cum = ref 0 and ans = ref (-1) in
    (try
       for i = 0 to n - 1 do
         cum := !cum + h.Obs.counts.(i);
         if !cum >= rank then begin
           ans := int_of_float (h.Obs.bounds.(i) *. 1000.0);
           raise Exit
         end
       done
     with Exit -> ());
    if !ans >= 0 then !ans
    else (* overflow bucket: report twice the last bound *)
      int_of_float (h.Obs.bounds.(n - 1) *. 2000.0)
  end

let tenant_of_client cfg c = c mod cfg.tenants
let dir_of_tenant k = Printf.sprintf "/t%d" k
let file_path k j = Printf.sprintf "/t%d/f%d" k j

type op_kind = Op_read | Op_write | Op_write_fsync | Op_stat

type client = {
  c_tenant : int;
  c_prng : Prng.t;
  c_closed : bool;
  c_lambda_ms : float; (* open-loop mean interarrival, ms *)
  mutable c_seq : int;
}

exception Stop_load

let run_load cfg brand =
  let params =
    {
      Memdisk.default_params with
      Memdisk.num_blocks = cfg.num_blocks;
      seed = cfg.seed lxor 0x51AB;
    }
  in
  let disk = Memdisk.create ~params () in
  Memdisk.set_time_model disk false;
  let dev = Memdisk.dev disk in
  (match Fs.mkfs brand dev with
  | Ok () -> ()
  | Error e -> failwith ("traffic: mkfs: " ^ Iron_vfs.Errno.to_string e));
  let (Fs.Boxed ((module F), t)) =
    match Fs.mount brand dev with
    | Ok b -> b
    | Error e -> failwith ("traffic: mount: " ^ Iron_vfs.Errno.to_string e)
  in
  (* Per-tenant working sets, then a full sync so measurement starts
     from a quiet volume and a zeroed clock. *)
  for k = 0 to cfg.tenants - 1 do
    (match F.mkdir t (dir_of_tenant k) with
    | Ok () -> ()
    | Error e -> failwith ("traffic: mkdir: " ^ Iron_vfs.Errno.to_string e));
    for j = 0 to cfg.files_per_tenant - 1 do
      match F.creat t (file_path k j) with
      | Error e -> failwith ("traffic: creat: " ^ Iron_vfs.Errno.to_string e)
      | Ok fd ->
          let len = 512 + (97 * j mod 1536) in
          let data = Bytes.make len (Char.chr (Char.code 'a' + (j mod 26))) in
          (match F.write t fd ~off:0 data with
          | Ok _ -> ()
          | Error e -> failwith ("traffic: write: " ^ Iron_vfs.Errno.to_string e));
          ignore (F.close t fd)
    done
  done;
  (match F.sync t with
  | Ok () -> ()
  | Error e -> failwith ("traffic: sync: " ^ Iron_vfs.Errno.to_string e));
  (* Zero the clock and statistics without disturbing content, then
     turn the service-time model on for the measured window. *)
  Memdisk.restore disk (Memdisk.snapshot disk);
  Memdisk.set_time_model disk true;
  let zipf = Zipf.create ~n:cfg.files_per_tenant ~theta:cfg.zipf in
  let obs = Obs.create () in
  let duration = float_of_int cfg.duration_ms in
  let lambda_ms =
    (* Per-client open-loop rate: the offered total spread evenly. *)
    float_of_int cfg.rate_hz /. float_of_int (max 1 cfg.clients) /. 1000.0
  in
  let clients =
    Array.init cfg.clients (fun c ->
        let closed =
          match cfg.arrival with
          | Poisson -> false
          | Closed -> true
          | Mixed -> c land 1 = 1
        in
        {
          c_tenant = tenant_of_client cfg c;
          c_prng = Prng.create ((cfg.seed * 1_000_003) + c);
          c_closed = closed;
          c_lambda_ms = lambda_ms;
          c_seq = 0;
        })
  in
  let pq = Pq.create () in
  Array.iteri
    (fun c cl ->
      let at =
        if cl.c_closed then Prng.float cl.c_prng (float_of_int cfg.think_ms)
        else exp_draw cl.c_prng /. cl.c_lambda_ms
      in
      Pq.push pq { Pq.at; client = c; seq = cl.c_seq };
      cl.c_seq <- cl.c_seq + 1)
    clients;
  let ops = ref 0 and errors = ref 0 in
  let op_counts = [| 0; 0; 0; 0 |] in
  let tenant_ops = Array.make cfg.tenants 0 in
  let busy_until = ref 0.0 in
  (try
     while not (Pq.is_empty pq) do
       let ev = Pq.pop pq in
       if ev.Pq.at > duration then raise Stop_load;
       let cl = clients.(ev.Pq.client) in
       (* Open-loop arrivals renew independently of completion. *)
       if not cl.c_closed then begin
         let at = ev.Pq.at +. (exp_draw cl.c_prng /. cl.c_lambda_ms) in
         Pq.push pq { Pq.at; client = ev.Pq.client; seq = cl.c_seq };
         cl.c_seq <- cl.c_seq + 1
       end;
       let p = cl.c_prng in
       let kind =
         let r = Prng.int p 100 in
         if r < 45 then Op_read
         else if r < 80 then Op_write
         else if r < 95 then Op_write_fsync
         else Op_stat
       in
       let path = file_path cl.c_tenant (Zipf.sample zipf p) in
       let d0 = dev.Dev.now () in
       let ok =
         match kind with
         | Op_stat -> ( match F.stat t path with Ok _ -> true | Error _ -> false)
         | Op_read -> (
             match F.open_ t path Fs.Rd with
             | Error _ -> false
             | Ok fd ->
                 let r =
                   match F.read t fd ~off:(Prng.int p 1024) ~len:256 with
                   | Ok _ -> true
                   | Error _ -> false
                 in
                 ignore (F.close t fd);
                 r)
         | Op_write | Op_write_fsync -> (
             match F.open_ t path Fs.Rdwr with
             | Error _ -> false
             | Ok fd ->
                 let data = Bytes.make 256 (Char.chr (33 + Prng.int p 90)) in
                 let r =
                   match F.write t fd ~off:(Prng.int p 2048) data with
                   | Ok _ -> true
                   | Error _ -> false
                 in
                 let r =
                   if r && kind = Op_write_fsync then
                     match F.fsync t fd with Ok () -> true | Error _ -> false
                   else r
                 in
                 ignore (F.close t fd);
                 r)
       in
       let service = dev.Dev.now () -. d0 in
       (* Single FIFO server: start when both the request and the disk
          are ready; latency is queueing plus service. *)
       let start = if ev.Pq.at > !busy_until then ev.Pq.at else !busy_until in
       let completion = start +. service in
       busy_until := completion;
       let latency = completion -. ev.Pq.at in
       Obs.observe ~buckets:lat_buckets obs "traffic.op.ms" latency;
       incr ops;
       if not ok then incr errors;
       (match kind with
       | Op_read -> op_counts.(0) <- op_counts.(0) + 1
       | Op_write -> op_counts.(1) <- op_counts.(1) + 1
       | Op_write_fsync -> op_counts.(2) <- op_counts.(2) + 1
       | Op_stat -> op_counts.(3) <- op_counts.(3) + 1);
       tenant_ops.(cl.c_tenant) <- tenant_ops.(cl.c_tenant) + 1;
       if cl.c_closed then begin
         let at = completion +. float_of_int cfg.think_ms in
         Pq.push pq { Pq.at; client = ev.Pq.client; seq = cl.c_seq };
         cl.c_seq <- cl.c_seq + 1
       end
     done
   with
  | Stop_load -> ()
  | Klog.Panic _ -> ());
  Memdisk.set_time_model disk false;
  (match F.unmount t with Ok () -> () | Error _ -> ());
  let img = Memdisk.snapshot disk in
  let hist =
    match List.assoc_opt "traffic.op.ms" (Obs.snapshot obs) with
    | Some (Obs.Histogram h) -> Some h
    | _ -> None
  in
  let p50 = match hist with Some h -> quantile_us h 0.50 | None -> 0 in
  let p99 = match hist with Some h -> quantile_us h 0.99 | None -> 0 in
  Obs.release obs;
  ( !ops,
    !errors,
    op_counts,
    tenant_ops,
    p50,
    p99,
    Memdisk.image_chunks_touched img,
    Memdisk.image_blocks_touched img )

(* ------------------------------------------------------------------ *)
(* The blast-radius phase                                              *)
(* ------------------------------------------------------------------ *)

let durable_content k i =
  Printf.sprintf "t%d-d%d-%s" k i
    (String.make (700 + (i * 911 mod 3000)) (Char.chr (Char.code 'a' + k)))

let racing_content step =
  Printf.sprintf "step%d-%s" step
    (String.make
       (900 + (step * 1777 mod 6200))
       (Char.chr (Char.code 'a' + (step mod 26))))

let tenant_of_path path =
  (* "/t<k>/..." *)
  if String.length path >= 3 && path.[0] = '/' && path.[1] = 't' then
    let rec num i acc =
      if i < String.length path && path.[i] >= '0' && path.[i] <= '9' then
        num (i + 1) ((acc * 10) + (Char.code path.[i] - Char.code '0'))
      else if i < String.length path && path.[i] = '/' then acc
      else -1
    in
    num 2 0
  else -1

let durable_per_tenant = 2
let racing_per_tenant = 2

let run_blast ?(jobs = 1) cfg brand =
  let params =
    {
      Memdisk.default_params with
      Memdisk.num_blocks = 2048;
      seed = cfg.seed lxor 0x7A11;
    }
  in
  (* The durable landscape: per-tenant directories and fsync'd files,
     checkpointed into the base image — what every crash state must
     preserve. *)
  let setup (Fs.Boxed ((module F), t)) =
    for k = 0 to cfg.tenants - 1 do
      (match F.mkdir t (dir_of_tenant k) with
      | Ok () -> ()
      | Error e -> failwith ("traffic: mkdir: " ^ Iron_vfs.Errno.to_string e));
      for i = 0 to durable_per_tenant - 1 do
        let path = Printf.sprintf "/t%d/d%d" k i in
        match F.creat t path with
        | Error e -> failwith ("traffic: creat: " ^ Iron_vfs.Errno.to_string e)
        | Ok fd ->
            (match
               F.write t fd ~off:0 (Bytes.of_string (durable_content k i))
             with
            | Ok _ -> ()
            | Error e ->
                failwith ("traffic: write: " ^ Iron_vfs.Errno.to_string e));
            (match F.fsync t fd with
            | Ok () -> ()
            | Error e ->
                failwith ("traffic: fsync: " ^ Iron_vfs.Errno.to_string e));
            ignore (F.close t fd)
      done
    done
  in
  let base = Explore.make_base ~params ~setup brand in
  (* The racing slice: a deterministic round-robin of tenant writes,
     every third one fsync'd, each op Prov-tagged with its index so the
     recorded writes carry their tenant. *)
  let steps = 12 * cfg.tenants in
  let op_tenant = Array.make steps 0 in
  let ops (Fs.Boxed ((module F), t)) ~closed_epochs:_ =
    let rng = Prng.create (cfg.seed lxor 0xB1A5) in
    let zipf = Zipf.create ~n:racing_per_tenant ~theta:cfg.zipf in
    let created = Hashtbl.create 16 in
    for step = 0 to steps - 1 do
      let k = step mod cfg.tenants in
      op_tenant.(step) <- k;
      let j = Zipf.sample zipf rng in
      let path = Printf.sprintf "/t%d/r%d" k j in
      let verb = if step mod 3 = 2 then "write+fsync" else "write" in
      Prov.with_op step (Printf.sprintf "t%d %s %s" k verb path) (fun () ->
          let fd =
            if Hashtbl.mem created path then
              match F.open_ t path Fs.Rdwr with Ok fd -> Some fd | Error _ -> None
            else
              match F.creat t path with
              | Ok fd ->
                  Hashtbl.replace created path ();
                  Some fd
              | Error _ -> None
          in
          match fd with
          | None -> ()
          | Some fd ->
              ignore
                (F.write t fd ~off:0 (Bytes.of_string (racing_content step)));
              if step mod 3 = 2 then ignore (F.fsync t fd);
              ignore (F.close t fd))
    done
  in
  let session = Explore.record_session ~params ~base ~ops brand in
  let specs =
    Explore.enumerate_session ~seed:(cfg.seed + 13) ~max_states:cfg.states
      session
  in
  let expects =
    let all =
      List.concat
        (List.init cfg.tenants (fun k ->
             List.init durable_per_tenant (fun i ->
                 {
                   Explore.ex_path = Printf.sprintf "/t%d/d%d" k i;
                   ex_presence = `Present;
                   ex_allowed = Some [ durable_content k i ];
                 })))
    in
    fun ~epoch:_ -> all
  in
  let results =
    Pool.map_jobs ~jobs
      (fun spec ->
        let o = Explore.check_spec_all ~params ~brand ~expects session spec in
        let culprit =
          match Explore.spec_first_dropped session spec with
          | Some tag when tag.Prov.op >= 0 && tag.Prov.op < steps ->
              op_tenant.(tag.Prov.op)
          | _ -> -1
        in
        let viols =
          List.map
            (fun (path, _) -> (tenant_of_path path, culprit))
            o.Explore.oa_failed
        in
        let mount_bad = match o.Explore.oa_global with Some _ -> 1 | None -> 0 in
        (o.Explore.oa_tc, viols, mount_bad))
      specs
  in
  let tc = ref 0 and cross = ref 0 and mount_viol = ref 0 in
  let viol_by = Array.make cfg.tenants 0 in
  let cross_by = Array.make cfg.tenants 0 in
  List.iter
    (fun (t, viols, mb) ->
      if t then incr tc;
      mount_viol := !mount_viol + mb;
      List.iter
        (fun (victim, culprit) ->
          if victim >= 0 && victim < cfg.tenants then begin
            viol_by.(victim) <- viol_by.(victim) + 1;
            if culprit >= 0 && culprit <> victim then begin
              incr cross;
              cross_by.(victim) <- cross_by.(victim) + 1
            end
          end)
        viols)
    results;
  (List.length specs, !tc, viol_by, cross_by, !cross, !mount_viol)

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

let run ?(jobs = 1) cfg brand =
  let ( ops,
        errors,
        op_counts,
        tenant_ops,
        p50,
        p99,
        chunks_touched,
        blocks_touched ) =
    run_load cfg brand
  in
  let states, tc, viol_by, cross_by, cross, mount_viol =
    run_blast ~jobs cfg brand
  in
  let zipf = Zipf.create ~n:cfg.files_per_tenant ~theta:cfg.zipf in
  {
    r_fs = Fs.brand_name brand;
    r_clients = cfg.clients;
    r_tenants = cfg.tenants;
    r_seed = cfg.seed;
    r_zipf_milli = Zipf.theta_milli zipf;
    r_arrival = arrival_to_string cfg.arrival;
    r_duration_ms = cfg.duration_ms;
    r_num_blocks = cfg.num_blocks;
    r_ops = ops;
    r_errors = errors;
    r_ops_per_sim_sec = ops * 1000 / max 1 cfg.duration_ms;
    r_p50_us = p50;
    r_p99_us = p99;
    r_op_counts =
      [
        ("read", op_counts.(0));
        ("write", op_counts.(1));
        ("write+fsync", op_counts.(2));
        ("stat", op_counts.(3));
      ];
    r_chunks_touched = chunks_touched;
    r_blocks_touched = blocks_touched;
    r_states = states;
    r_tc = tc;
    r_viol = Array.fold_left ( + ) 0 viol_by;
    r_cross = cross;
    r_mount_viol = mount_viol;
    r_tenant =
      List.init cfg.tenants (fun k ->
          {
            ts_tenant = k;
            ts_ops = tenant_ops.(k);
            ts_viol = viol_by.(k);
            ts_cross = cross_by.(k);
          });
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "%s: traffic %d clients / %d tenants (%s, zipf %d/1000, seed %d): %d ops \
     in %d sim-ms (%d ops/sim-s, p50 %d us, p99 %d us, %d errors)@,"
    r.r_fs r.r_clients r.r_tenants r.r_arrival r.r_zipf_milli r.r_seed r.r_ops
    r.r_duration_ms r.r_ops_per_sim_sec r.r_p50_us r.r_p99_us r.r_errors;
  Format.fprintf ppf
    "  volume %d blocks, %d chunks / %d blocks materialized@," r.r_num_blocks
    r.r_chunks_touched r.r_blocks_touched;
  Format.fprintf ppf
    "  blast radius: %d crash states, %d tenant violations (%d cross-tenant), \
     %d mount-level, Tc detections %d@,"
    r.r_states r.r_viol r.r_cross r.r_mount_viol r.r_tc;
  List.iter
    (fun ts ->
      Format.fprintf ppf "  t%d: ops %d, violations %d (cross %d)@,"
        ts.ts_tenant ts.ts_ops ts.ts_viol ts.ts_cross)
    r.r_tenant;
  Format.fprintf ppf "@]"

module Fs = Iron_vfs.Fs
module Errno = Iron_vfs.Errno
module Prng = Iron_util.Prng

let ( let* ) = Result.bind

type t = {
  name : string;
  setup : Fs.boxed -> Prng.t -> (unit, Errno.t) result;
  run : Fs.boxed -> Prng.t -> (unit, Errno.t) result;
  cpu_ms : float;
}

let bs = 4096

let content rng n =
  let b = Bytes.create n in
  Prng.fill_bytes rng b;
  b

let put (Fs.Boxed ((module F), t)) path data =
  let* fd = F.creat t path in
  let* _ = F.write t fd ~off:0 data in
  F.close t fd

let read_all (Fs.Boxed ((module F), t)) path =
  let* fd = F.open_ t path Fs.Rd in
  let* st = F.stat t path in
  let* _ = F.read t fd ~off:0 ~len:st.Fs.st_size in
  F.close t fd

let rec fold_range lo hi acc f =
  if lo >= hi then Ok acc
  else
    let* acc = f acc lo in
    fold_range (lo + 1) hi acc f

let iter_range lo hi f = fold_range lo hi () (fun () i -> f i)

(* --- SSH-Build -------------------------------------------------------- *)

let ssh_build =
  {
    name = "SSH-Build";
    cpu_ms = 8000.0 (* compiling dominates a build *);
    setup = (fun _ _ -> Ok ());
    run =
      (fun (Fs.Boxed ((module F), t) as fs) rng ->
        let dirs = 8 and files_per_dir = 8 in
        (* Unpack: the source tree. *)
        let* () = F.mkdir t "/ssh" in
        let* () =
          iter_range 0 dirs (fun d ->
              let dir = Printf.sprintf "/ssh/dir%d" d in
              let* () = F.mkdir t dir in
              iter_range 0 files_per_dir (fun f ->
                  let size = 1024 + Prng.int rng (6 * 1024) in
                  put fs (Printf.sprintf "%s/src%d.c" dir f) (content rng size)))
        in
        (* Configure: probe every source, write small outputs. *)
        let* () =
          iter_range 0 dirs (fun d ->
              let dir = Printf.sprintf "/ssh/dir%d" d in
              iter_range 0 files_per_dir (fun f ->
                  let* _ = F.stat t (Printf.sprintf "%s/src%d.c" dir f) in
                  read_all fs (Printf.sprintf "%s/src%d.c" dir f)))
        in
        let* () = put fs "/ssh/config.h" (content rng 2048) in
        (* Build: read sources, emit objects, link. *)
        let* () =
          iter_range 0 dirs (fun d ->
              let dir = Printf.sprintf "/ssh/dir%d" d in
              iter_range 0 files_per_dir (fun f ->
                  let* () = read_all fs (Printf.sprintf "%s/src%d.c" dir f) in
                  let osize = 2048 + Prng.int rng (8 * 1024) in
                  put fs (Printf.sprintf "%s/obj%d.o" dir f) (content rng osize)))
        in
        let* () = put fs "/ssh/sshd" (content rng (192 * 1024)) in
        F.sync t);
  }

(* --- Web server ------------------------------------------------------- *)

let web_ndocs = 60

let web =
  {
    name = "Web";
    cpu_ms = 20000.0 (* request handling and the network dominate *);
    setup =
      (fun (Fs.Boxed ((module F), t) as fs) rng ->
        let* () = F.mkdir t "/htdocs" in
        let* () =
          iter_range 0 web_ndocs (fun d ->
              let size = 16384 + Prng.int rng (96 * 1024) in
              put fs (Printf.sprintf "/htdocs/page%d.html" d) (content rng size))
        in
        F.sync t);
    run =
      (fun fs rng ->
        (* 600 GETs with a popularity skew: most hits on a hot subset. *)
        iter_range 0 400 (fun _ ->
            let d =
              if Prng.int rng 100 < 70 then Prng.int rng 8
              else Prng.int rng web_ndocs
            in
            read_all fs (Printf.sprintf "/htdocs/page%d.html" d)));
  }

(* --- PostMark --------------------------------------------------------- *)

let pm_pool = 40
let pm_subdirs = 10
let pm_path i = Printf.sprintf "/mail/s%d/f%d" (i mod pm_subdirs) i

let postmark =
  {
    name = "PostMark";
    cpu_ms = 0.0;
    setup =
      (fun (Fs.Boxed ((module F), t) as fs) rng ->
        let* () = F.mkdir t "/mail" in
        let* () =
          iter_range 0 pm_subdirs (fun d -> F.mkdir t (Printf.sprintf "/mail/s%d" d))
        in
        let* () =
          iter_range 0 pm_pool (fun i ->
              let size = 4096 + Prng.int rng (28 * 1024) in
              put fs (pm_path i) (content rng size))
        in
        F.sync t);
    run =
      (fun (Fs.Boxed ((module F), t) as fs) rng ->
        let txns = 300 in
        let path = pm_path in
        let live = Hashtbl.create 64 in
        for i = 0 to pm_pool - 1 do
          Hashtbl.replace live i ()
        done;
        let next = ref pm_pool in
        let pick () =
          let keys = Hashtbl.fold (fun k () acc -> k :: acc) live [] in
          match keys with [] -> None | _ -> Some (List.nth keys (Prng.int rng (List.length keys)))
        in
        let* () =
          iter_range 0 txns (fun n ->
              let* () =
                match Prng.int rng 4 with
                | 0 ->
                    (* create *)
                    let i = !next in
                    incr next;
                    let size = 4096 + Prng.int rng (28 * 1024) in
                    let* () = put fs (path i) (content rng size) in
                    Hashtbl.replace live i ();
                    Ok ()
                | 1 -> (
                    (* delete *)
                    match pick () with
                    | None -> Ok ()
                    | Some i ->
                        Hashtbl.remove live i;
                        F.unlink t (path i))
                | 2 -> (
                    (* read *)
                    match pick () with
                    | None -> Ok ()
                    | Some i -> read_all fs (path i))
                | _ -> (
                    (* append *)
                    match pick () with
                    | None -> Ok ()
                    | Some i ->
                        let* st = F.stat t (path i) in
                        let* fd = F.open_ t (path i) Fs.Wr in
                        let chunk = content rng (512 + Prng.int rng 4096) in
                        let* _ = F.write t fd ~off:st.Fs.st_size chunk in
                        F.close t fd)
              in
              if n mod 100 = 99 then F.sync t else Ok ())
        in
        F.sync t);
  }

(* --- TPC-B ------------------------------------------------------------ *)

(* Large enough that random account reads miss the cache, as they would
   against a real database file. *)
let tpcb_accounts_blocks = 1600

let tpcb_with ~commit_every =
  {
    name =
      (if commit_every = 1 then "TPC-B"
       else Printf.sprintf "TPC-B(batch=%d)" commit_every);
    cpu_ms = 0.0;
    setup =
      (fun (Fs.Boxed ((module F), t) as fs) rng ->
        let* () = put fs "/accounts" (content rng (tpcb_accounts_blocks * bs)) in
        let* () = put fs "/history" Bytes.empty in
        F.sync t);
    run =
      (fun (Fs.Boxed ((module F), t)) rng ->
        let accounts_blocks = tpcb_accounts_blocks in
        let* afd = F.open_ t "/accounts" Fs.Rdwr in
        let* hfd = F.open_ t "/history" Fs.Wr in
        let* () =
          iter_range 0 200 (fun n ->
              (* read-modify-write a random account record *)
              let blk = Prng.int rng accounts_blocks in
              let off = (blk * bs) + (Prng.int rng 40 * 100) in
              let* record = F.read t afd ~off ~len:100 in
              let record = if Bytes.length record < 100 then Bytes.make 100 'a' else record in
              Bytes.set record 0 (Char.chr (n land 0xFF));
              let* _ = F.write t afd ~off record in
              (* append to the history file *)
              let* hst = F.stat t "/history" in
              let* _ = F.write t hfd ~off:hst.Fs.st_size (content rng 50) in
              if n mod commit_every = commit_every - 1 then F.fsync t afd else Ok ())
        in
        let* () = F.close t afd in
        let* () = F.close t hfd in
        F.sync t);
  }

let tpcb = tpcb_with ~commit_every:1
let tpcb_batched n = tpcb_with ~commit_every:(max 1 n)
let all = [ ssh_build; web; postmark; tpcb ]

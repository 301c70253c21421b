module Memdisk = Iron_disk.Memdisk
module Fs = Iron_vfs.Fs
module Layout = Iron_ext3.Layout
module Prng = Iron_util.Prng

type row = {
  profile : string;
  files : int;
  mean_file_kb : float;
  meta_pct : float;
  parity_pct : float;
}

(* File-size mixes loosely mirroring the volumes the paper sampled:
   mostly-small office trees, a mixed home directory, and a
   media-heavy volume of large files. *)
let profiles =
  [
    ("office (small files)", 90, fun rng -> 4096 + Prng.int rng (24 * 1024));
    ("home (mixed)", 50, fun rng -> 8192 + Prng.int rng (100 * 1024));
    ("media (large files)", 18, fun rng -> 131072 + Prng.int rng (300 * 1024));
  ]

let num_blocks = 4096

let measure_one (name, nfiles, size_of) =
  let disk =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks; seed = 7 }
      ()
  in
  Memdisk.set_time_model disk false;
  let dev = Memdisk.dev disk in
  let brand = Iron_ixt3.Ixt3.full in
  (match Fs.mkfs brand dev with Ok () -> () | Error _ -> failwith "space: mkfs");
  let (Fs.Boxed ((module F), t)) =
    match Fs.mount brand dev with Ok b -> b | Error _ -> failwith "space: mount"
  in
  let rng = Prng.create 0x5AACE in
  let total_bytes = ref 0 in
  for i = 0 to nfiles - 1 do
    let size = size_of rng in
    total_bytes := !total_bytes + size;
    let fd = match F.creat t (Printf.sprintf "/f%d" i) with Ok fd -> fd | Error _ -> failwith "creat" in
    let data = Bytes.create size in
    Prng.fill_bytes rng data;
    (match F.write t fd ~off:0 data with Ok _ -> () | Error _ -> failwith "write");
    ignore (F.close t fd)
  done;
  (match F.sync t with Ok () -> () | Error _ -> failwith "sync");
  (match F.unmount t with Ok () -> () | Error _ -> failwith "unmount");
  (* Inspect the image. *)
  let lay = Layout.compute ~block_size:4096 ~num_blocks in
  let classify = Iron_ext3.Classifier.classify (Memdisk.peek disk) in
  let count label =
    let n = ref 0 in
    for b = 0 to num_blocks - 1 do
      if classify b = label then incr n
    done;
    !n
  in
  let parity_blocks = count "parity" in
  let shadow_blocks = count "replica" - lay.Layout.replica_blocks in
  let data_blocks = count "data" in
  let dir_blocks = count "dir" in
  let indirect_blocks = count "indirect" in
  (* Base space: what a non-IRON volume would consume for the same
     content (data + live metadata structures). *)
  let static_meta =
    2 (* super + gdesc *)
    + (lay.Layout.ngroups * (3 + lay.Layout.itable_blocks))
  in
  let base =
    data_blocks + dir_blocks + indirect_blocks + static_meta
  in
  (* The checksum / rmap / replica regions are statically sized for the
     whole device; the paper measured full volumes, so charge only the
     part serving live content: 20 bytes of checksum per used block, a
     replica per live metadata block, an rmap slot per shadow. *)
  let groups_in_use =
    let used = Hashtbl.create 8 in
    for b = 0 to num_blocks - 1 do
      match classify b with
      | "data" | "dir" | "indirect" | "parity" -> (
          match Layout.group_of_block lay b with
          | Some g -> Hashtbl.replace used g ()
          | None -> ())
      | _ -> ()
    done;
    max 1 (Hashtbl.length used)
  in
  let cksum_used = ((base + parity_blocks) * 20 / 4096) + 1 in
  let used_itable = ((nfiles + 2 + lay.Layout.inodes_per_block - 1)
                     / lay.Layout.inodes_per_block) in
  let replica_used = 1 + (groups_in_use * 2) + used_itable in
  let rmap_used = (max 0 shadow_blocks * 4 / 4096) + 1 in
  let meta_redundant =
    cksum_used + rmap_used + replica_used + max 0 shadow_blocks
  in
  let pct n = 100.0 *. float_of_int n /. float_of_int base in
  {
    profile = name;
    files = nfiles;
    mean_file_kb = float_of_int !total_bytes /. float_of_int nfiles /. 1024.;
    meta_pct = pct meta_redundant;
    parity_pct = pct parity_blocks;
  }

let measure () = List.map measure_one profiles

let pp fmt rows =
  Format.fprintf fmt "Space overheads of ixt3 redundancy (%%%% of used space):@.";
  Format.fprintf fmt "%-22s %6s %10s %12s %12s@." "volume profile" "files"
    "mean KB" "meta+cksum" "parity";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-22s %6d %10.1f %11.1f%% %11.1f%%@." r.profile r.files
        r.mean_file_kb r.meta_pct r.parity_pct)
    rows

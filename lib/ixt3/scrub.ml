open Iron_util
module Dev = Iron_disk.Dev
module Errno = Iron_vfs.Errno
module Layout = Iron_ext3.Layout
module Inode = Iron_ext3.Inode
module Profile = Iron_ext3.Profile

let ( let* ) = Result.bind

type report = {
  scanned : int;
  latent_errors : int;
  corrupt : int;
  repaired : int;
  unrecoverable : int;
}

let pp_report fmt r =
  Format.fprintf fmt
    "scrub: %d blocks scanned, %d latent errors, %d corrupt, %d repaired, %d unrecoverable"
    r.scanned r.latent_errors r.corrupt r.repaired r.unrecoverable

(* Map every live data block to (owner blocks list, parity block) so a
   damaged member can be rebuilt by XOR over its group. *)
let parity_groups dev lay =
  let read b = match dev.Dev.read b with Ok d -> Some d | Error _ -> None in
  let groups = Hashtbl.create 32 in
  let ptrs_of b =
    match read b with
    | None -> []
    | Some blk ->
        List.init lay.Layout.ptrs_per_block (fun i -> Codec.read_u32 blk (i * 4))
        |> List.filter (fun p -> p > 0 && p < lay.Layout.num_blocks)
  in
  for ino = 1 to Layout.total_inodes lay do
    let blk, off = Layout.inode_location lay ino in
    match read blk with
    | None -> ()
    | Some buf -> (
        let i = Inode.decode lay buf off in
        match i.Inode.kind with
        | Inode.Regular when i.Inode.parity > 0 ->
            let members = ref [] in
            Array.iter (fun p -> if p > 0 then members := p :: !members) i.Inode.direct;
            List.iter (fun p -> members := p :: !members) (ptrs_of i.Inode.ind);
            List.iter
              (fun l1 -> List.iter (fun p -> members := p :: !members) (ptrs_of l1))
              (ptrs_of i.Inode.dind);
            let members = !members in
            List.iter
              (fun m -> Hashtbl.replace groups m (members, i.Inode.parity))
              (i.Inode.parity :: members)
        | Inode.Regular | Inode.Directory | Inode.Symlink | Inode.Free -> ())
  done;
  groups

let run_pass profile dev =
  Iron_obs.Obs.span_a ~subsystem:"ixt3.scrub" "pass" @@ fun () ->
  let* lay =
    match dev.Dev.read 0 with
    | Error _ -> Error Errno.EIO
    | Ok buf -> (
        match Iron_ext3.Sb.decode buf with
        | Ok sb ->
            Ok (Layout.compute ~block_size:sb.Iron_ext3.Sb.block_size
                  ~num_blocks:sb.Iron_ext3.Sb.num_blocks)
        | Error e -> Error e)
  in
  let classify = Iron_ext3.Classifier.classify (fun b -> Dev.read_exn dev b) in
  let groups = parity_groups dev lay in
  let stored_cksum b =
    let cb, off = Layout.cksum_location lay b in
    match dev.Dev.read cb with
    | Ok buf -> Some (Bytes.sub_string buf off 20)
    | Error _ -> None
  in
  let rmap_shadow b =
    let rb, off = Layout.rmap_location lay b in
    match dev.Dev.read rb with
    | Ok buf -> ( match Codec.read_u32 buf off with 0 -> None | s -> Some s)
    | Error _ -> None
  in
  let replica_of b =
    match Layout.replica_of lay b with Some r -> Some r | None -> rmap_shadow b
  in
  let checksummed label =
    match label with
    | "bitmap" | "i-bitmap" | "inode" | "dir" | "indirect" ->
        profile.Profile.meta_checksum
    | "data" | "parity" -> profile.Profile.data_checksum
    | _ -> false
  in
  let latent = ref 0 and corrupt = ref 0 and repaired = ref 0 and dead = ref 0 in
  let repair_from_parity b =
    match Hashtbl.find_opt groups b with
    | None -> false
    | Some (members, parity) ->
        let acc = Bytes.make lay.Layout.block_size '\000' in
        let xor_in src =
          for i = 0 to Bytes.length acc - 1 do
            Bytes.set acc i
              (Char.chr (Char.code (Bytes.get acc i) lxor Char.code (Bytes.get src i)))
          done
        in
        let ok = ref true in
        List.iter
          (fun m ->
            if m <> b then
              match dev.Dev.read m with
              | Ok d -> xor_in d
              | Error _ -> ok := false)
          (parity :: List.filter (fun m -> m <> parity) members);
        if !ok then
          match dev.Dev.write b acc with Ok () -> true | Error _ -> false
        else false
  in
  let repair_meta b =
    if not profile.Profile.meta_replica then false
    else
      match replica_of b with
      | None -> false
      | Some r -> (
          match dev.Dev.read r with
          | Error _ -> false
          | Ok copy -> (
              match dev.Dev.write b copy with Ok () -> true | Error _ -> false))
  in
  let repair b label =
    match label with
    | "data" | "parity" ->
        if profile.Profile.data_parity && repair_from_parity b then true
        else repair_meta b
    | _ -> if repair_meta b then true else repair_from_parity b
  in
  for b = 0 to lay.Layout.num_blocks - 1 do
    let label = classify b in
    match dev.Dev.read b with
    | Error _ ->
        incr latent;
        if repair b label then incr repaired else incr dead
    | Ok data ->
        if checksummed label then begin
          match stored_cksum b with
          | None -> ()
          | Some stored ->
              if not (String.equal stored (Sha1.to_raw (Sha1.digest data))) then begin
                incr corrupt;
                if repair b label then incr repaired else incr dead
              end
        end
  done;
  Ok
    {
      scanned = lay.Layout.num_blocks;
      latent_errors = !latent;
      corrupt = !corrupt;
      repaired = !repaired;
      unrecoverable = !dead;
    }

let passes = 3

let run profile dev =
  Iron_obs.Obs.span_a ~subsystem:"ixt3.scrub" "run" @@ fun () ->
  let ( let* ) = Result.bind in
  let rec go n acc =
    let* r = run_pass profile dev in
    let acc =
      match acc with
      | None -> r
      | Some first ->
          {
            first with
            repaired = first.repaired + r.repaired;
            unrecoverable = r.unrecoverable;
          }
    in
    if n + 1 >= passes || r.repaired = 0 then Ok acc else go (n + 1) (Some acc)
  in
  go 0 None

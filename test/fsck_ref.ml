(* The offline checker as it stood before pass 1 walked each inode-table
   block once, decoding only live slots, and read into arena buffers.
   Kept verbatim below this header, save that its bitmap bits go
   through [Iron_util.Bitmap], as the reference that the differential
   tests in test_fsck.ml hold [Iron_ext3.Fsck] to. *)

open Iron_ext3

open Iron_util
module Dev = Iron_disk.Dev
module Errno = Iron_vfs.Errno

let ( let* ) = Result.bind

type finding = {
  severity : [ `Error | `Warning ];
  message : string;
  repaired : bool;
}

type report = { findings : finding list; clean : bool }

let pp_report fmt r =
  if r.findings = [] then Format.fprintf fmt "fsck: clean@."
  else begin
    List.iter
      (fun f ->
        Format.fprintf fmt "fsck %s: %s%s@."
          (match f.severity with `Error -> "ERROR" | `Warning -> "warn")
          f.message
          (if f.repaired then " [repaired]" else ""))
      r.findings;
    Format.fprintf fmt "fsck: %s@." (if r.clean then "clean" else "errors found")
  end

let run ?(repair = false) dev =
  let* lay =
    match dev.Dev.read 0 with
    | Error _ -> Error Errno.EIO
    | Ok buf -> (
        match Sb.decode buf with
        | Ok sb ->
            Ok
              (Layout.compute ~block_size:sb.Sb.block_size
                 ~num_blocks:sb.Sb.num_blocks)
        | Error e -> Error e)
  in
  let findings = ref [] in
  let errors = ref 0 in
  let note severity repaired fmt =
    Format.kasprintf
      (fun message ->
        if severity = `Error && not repaired then incr errors;
        findings := { severity; message; repaired } :: !findings)
      fmt
  in
  (* Memoize successful reads: pass 1 touches the same inode-table and
     indirect blocks once per inode, and pass 4 re-reads the table blocks
     again. Caching is sound here because fsck runs on a quiesced device
     (nobody writes behind its back) and repairs mutate the cached buffer
     itself before writing it out, so cache and device stay coherent.
     Failed reads are NOT cached so transient-error semantics are kept. *)
  let cache = Hashtbl.create 64 in
  let read b =
    match Hashtbl.find_opt cache b with
    | Some d -> Some d
    | None -> (
        match dev.Dev.read b with
        | Ok d ->
            Hashtbl.add cache b d;
            Some d
        | Error _ -> None)
  in
  (* Pass 1: walk every live inode, collecting reachable blocks and the
     directory graph. *)
  let reachable = Hashtbl.create 256 in
  (* Dense mirror of [reachable]'s domain: pass 3 probes every data block
     once, and a bit test beats a hash probe there. *)
  let reach_bits = Bytes.make ((lay.Layout.num_blocks / 8) + 1) '\000' in
  let dir_refs = Hashtbl.create 64 in (* ino -> #entries pointing at it *)
  let live = Hashtbl.create 64 in (* ino -> inode *)
  let ref_ino ino =
    Hashtbl.replace dir_refs ino
      (1 + Option.value ~default:0 (Hashtbl.find_opt dir_refs ino))
  in
  let claim b what =
    if b > 0 && b < lay.Layout.num_blocks then begin
      (match Hashtbl.find_opt reachable b with
      | Some prior ->
          note `Error false "block %d claimed by both %s and %s" b prior what
      | None -> ());
      Hashtbl.replace reachable b what;
      Bitmap.set reach_bits b true
    end
    else if b <> 0 then note `Error false "%s points at impossible block %d" what b
  in
  let iter_ptrs b f =
    match read b with
    | None -> ()
    | Some blk ->
        for i = 0 to lay.Layout.ptrs_per_block - 1 do
          f (Codec.read_u32 blk (i * 4))
        done
  in
  let max_blocks = Inode.max_file_blocks lay in
  for ino = 1 to Layout.total_inodes lay do
    let blk, off = Layout.inode_location lay ino in
    match read blk with
    | None -> note `Error false "inode table block %d unreadable" blk
    | Some buf -> (
        let i = Inode.decode lay buf off in
        match i.Inode.kind with
        | Inode.Free -> ()
        | Inode.Symlink -> Hashtbl.replace live ino i
        | Inode.Regular | Inode.Directory ->
            Hashtbl.replace live ino i;
            let what = Printf.sprintf "inode %d" ino in
            if i.Inode.size > max_blocks * lay.Layout.block_size then
              note `Error false "inode %d has impossible size %d" ino i.Inode.size;
            Array.iter (fun p -> if p > 0 then claim p what) i.Inode.direct;
            if i.Inode.ind > 0 then begin
              claim i.Inode.ind what;
              iter_ptrs i.Inode.ind (fun p -> if p > 0 then claim p what)
            end;
            if i.Inode.dind > 0 then begin
              claim i.Inode.dind what;
              iter_ptrs i.Inode.dind (fun l1 ->
                  if l1 > 0 && l1 < lay.Layout.num_blocks then begin
                    claim l1 what;
                    iter_ptrs l1 (fun p -> if p > 0 then claim p what)
                  end)
            end;
            if i.Inode.parity > 0 then claim i.Inode.parity what)
  done;
  (* Pass 1b: dynamic replica shadows (ixt3 Mr) are referenced only
     from the replica map; they are reachable too. *)
  for m = 0 to lay.Layout.rmap_blocks - 1 do
    match read (lay.Layout.rmap_start + m) with
    | None -> ()
    | Some buf ->
        for i = 0 to (lay.Layout.block_size / 4) - 1 do
          let shadow = Codec.read_u32 buf (i * 4) in
          if shadow > 0 && shadow < lay.Layout.num_blocks then
            claim shadow "replica map"
        done
  done;
  (* Pass 2: read directories, counting references. The root counts as
     referenced by convention. *)
  ref_ino Layout.root_ino;
  Hashtbl.iter
    (fun ino (i : Inode.t) ->
      if i.Inode.kind = Inode.Directory then begin
        let n = (i.Inode.size + lay.Layout.block_size - 1) / lay.Layout.block_size in
        for fb = 0 to min (n - 1) (lay.Layout.direct_ptrs - 1) do
          let b = i.Inode.direct.(fb) in
          if b > 0 && b < lay.Layout.num_blocks then
            match read b with
            | None -> ()
            | Some buf ->
                List.iter
                  (fun (name, child) ->
                    if name <> "." && name <> ".." then
                      if Hashtbl.mem live child then ref_ino child
                      else
                        note `Error repair
                          "directory %d entry %S references dead inode %d" ino name
                          child)
                  (Dirent.decode buf)
        done
      end)
    live;
  (* Pass 3: bitmaps vs reality. *)
  for g = 0 to lay.Layout.ngroups - 1 do
    let bb = Layout.bitmap_block lay g in
    (match read bb with
    | None -> note `Error false "bitmap block %d unreadable" bb
    | Some buf ->
        let dirty = ref false in
        for i = 0 to Layout.data_blocks_per_group lay - 1 do
          let b = Layout.data_start lay g + i in
          let marked = Bitmap.get buf i in
          let used = Bitmap.get reach_bits b in
          if marked && not used then begin
            note `Warning repair "block %d marked allocated but unreachable (leak)" b;
            if repair then begin
              Bitmap.set buf i false;
              dirty := true
            end
          end
          else if used && not marked then begin
            note `Error repair "block %d in use but free in the bitmap" b;
            if repair then begin
              Bitmap.set buf i true;
              dirty := true
            end
          end
        done;
        if !dirty then ignore (dev.Dev.write bb buf));
    let ib = Layout.ibitmap_block lay g in
    match read ib with
    | None -> note `Error false "inode bitmap block %d unreadable" ib
    | Some buf ->
        let dirty = ref false in
        for i = 0 to lay.Layout.inodes_per_group - 1 do
          let ino = (g * lay.Layout.inodes_per_group) + i + 1 in
          let marked = Bitmap.get buf i in
          let used = ino = 1 || Hashtbl.mem live ino in
          if marked && not used then begin
            note `Warning repair "inode %d marked allocated but free" ino;
            if repair then begin
              Bitmap.set buf i false;
              dirty := true
            end
          end
          else if used && ino > 1 && not marked then begin
            note `Error repair "inode %d live but free in the inode bitmap" ino;
            if repair then begin
              Bitmap.set buf i true;
              dirty := true
            end
          end
        done;
        if !dirty then ignore (dev.Dev.write ib buf)
  done;
  (* Pass 4: link counts. *)
  Hashtbl.iter
    (fun ino (i : Inode.t) ->
      let expected =
        match i.Inode.kind with
        | Inode.Directory ->
            (* Directory link arithmetic ("." + parent + children) is
               left to the mount-time structures; fsck only enforces
               file/symlink counts, as the classic tool does first. *)
            i.Inode.links
        | Inode.Regular | Inode.Symlink ->
            Option.value ~default:0 (Hashtbl.find_opt dir_refs ino)
        | Inode.Free -> 0
      in
      if i.Inode.kind <> Inode.Directory && expected <> i.Inode.links then begin
        note `Error repair "inode %d has links=%d but %d references" ino
          i.Inode.links expected;
        if repair then begin
          let blk, off = Layout.inode_location lay ino in
          match read blk with
          | None -> ()
          | Some buf ->
              Inode.encode lay { i with Inode.links = expected } buf off;
              ignore (dev.Dev.write blk buf)
        end
      end)
    live;
  ignore (dev.Dev.sync ());
  Ok { findings = List.rev !findings; clean = !errors = 0 }

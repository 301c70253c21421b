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
  (* Every block fsck reads lands in a buffer from the calling domain's
     block arena, and all of them go back when the run ends: nothing
     fsck returns holds on to one. *)
  let arena = Arena.block dev.Dev.block_size in
  let* lay =
    Arena.scratch arena @@ fun buf ->
    match dev.Dev.read_into 0 buf with
    | Error _ -> Error Errno.EIO
    | Ok () -> (
        match Sb.decode buf with
        | Ok sb when sb.Sb.block_size <> dev.Dev.block_size ->
            (* The layout would index past the device's blocks. *)
            Error Errno.EUCLEAN
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
  (* Memoize successful reads: pass 4 re-reads the inode-table blocks
     pass 1 read, and corrupt pointers can lead several inodes to the
     same indirect block. Caching is sound here because fsck runs on a quiesced device
     (nobody writes behind its back) and repairs mutate the cached buffer
     itself before writing it out, so cache and device stay coherent.
     Failed reads are NOT cached so transient-error semantics are kept. *)
  let cache = Hashtbl.create 64 in
  let read b =
    match Hashtbl.find_opt cache b with
    | Some d -> Some d
    | None -> (
        let buf = Arena.get arena in
        match dev.Dev.read_into b buf with
        | Ok () ->
            Hashtbl.add cache b buf;
            Some buf
        | Error _ ->
            Arena.put arena buf;
            None)
  in
  (* Pass 1: walk every live inode, collecting reachable blocks and the
     directory graph. A block's owner is an inode number, or
     [replica_map] (no inode is numbered 0); its name is spelled out
     only when a finding needs it. *)
  let replica_map = 0 in
  let owner_name o =
    if o = replica_map then "replica map" else Printf.sprintf "inode %d" o
  in
  let reachable = Hashtbl.create 256 in
  let dir_refs = Hashtbl.create 64 in (* ino -> #entries pointing at it *)
  let live = Hashtbl.create 64 in (* ino -> inode *)
  (* Dense mirrors of the domains of [reachable] (data blocks only) and
     [live], laid out like the on-disk bitmaps: group [g] fills whole
     64-bit words from word [g * dwords] (blocks) or [g * iwords]
     (inodes) on, in the bitmap's own bit order, so pass 3 compares a
     bitmap with its mirror one word at a time. *)
  let ipg = lay.Layout.inodes_per_group in
  let dbits = Layout.data_blocks_per_group lay in
  let dwords = (dbits + 63) / 64 and iwords = (ipg + 63) / 64 in
  let reach_bits = Bytes.make (lay.Layout.ngroups * dwords * 8) '\000' in
  let live_bits = Bytes.make (lay.Layout.ngroups * iwords * 8) '\000' in
  let live_bit ino =
    let g = (ino - 1) / ipg in
    (g * 64 * iwords) + (ino - 1 - (g * ipg))
  in
  (* Inode 1 is never a file but always counts as in use. *)
  Bitmap.set live_bits (live_bit 1) true;
  let ref_ino ino =
    Hashtbl.replace dir_refs ino
      (1 + Option.value ~default:0 (Hashtbl.find_opt dir_refs ino))
  in
  let claim b owner =
    if b > 0 && b < lay.Layout.num_blocks then begin
      (match Hashtbl.find_opt reachable b with
      | Some prior ->
          note `Error false "block %d claimed by both %s and %s" b
            (owner_name prior) (owner_name owner)
      | None -> ());
      Hashtbl.replace reachable b owner;
      match Layout.group_of_block lay b with
      | Some g ->
          let i = b - Layout.data_start lay g in
          if i >= 0 then Bitmap.set reach_bits ((g * 64 * dwords) + i) true
      | None -> ()
    end
    else if b <> 0 then
      note `Error false "%s points at impossible block %d" (owner_name owner) b
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
  let check_inode ino (i : Inode.t) =
    Hashtbl.replace live ino i;
    Bitmap.set live_bits (live_bit ino) true;
    match i.Inode.kind with
    | Inode.Free | Inode.Symlink -> ()
    | Inode.Regular | Inode.Directory ->
        if i.Inode.size > max_blocks * lay.Layout.block_size then
          note `Error false "inode %d has impossible size %d" ino i.Inode.size;
        Array.iter (fun p -> if p > 0 then claim p ino) i.Inode.direct;
        if i.Inode.ind > 0 then begin
          claim i.Inode.ind ino;
          iter_ptrs i.Inode.ind (fun p -> if p > 0 then claim p ino)
        end;
        if i.Inode.dind > 0 then begin
          claim i.Inode.dind ino;
          iter_ptrs i.Inode.dind (fun l1 ->
              if l1 > 0 && l1 < lay.Layout.num_blocks then begin
                claim l1 ino;
                iter_ptrs l1 (fun p -> if p > 0 then claim p ino)
              end)
        end;
        if i.Inode.parity > 0 then claim i.Inode.parity ino
  in
  (* Each inode-table block is read once and only its live slots are
     decoded. While the block's read fails, it is retried for each of
     its inodes in turn, exactly as a read per inode would: failures are
     not cached, so a transient fault can heal partway through. *)
  let ipb = lay.Layout.inodes_per_block in
  let total = Layout.total_inodes lay in
  let first = ref 1 in
  while !first <= total do
    let blk, _ = Layout.inode_location lay !first in
    let last = min total (!first + ipb - 1) in
    let ino = ref !first in
    while !ino <= last do
      match read blk with
      | None ->
          note `Error false "inode table block %d unreadable" blk;
          incr ino
      | Some buf ->
          let off = ref ((!ino - !first) * lay.Layout.inode_size) in
          for n = !ino to last do
            (match Inode.kind_at buf !off with
            | Inode.Free -> ()
            | Inode.Regular | Inode.Directory | Inode.Symlink ->
                check_inode n (Inode.decode lay buf !off));
            off := !off + lay.Layout.inode_size
          done;
          ino := last + 1
    done;
    first := last + 1
  done;
  (* Pass 1b: dynamic replica shadows (ixt3 Mr) are referenced only
     from the replica map; they are reachable too. Most slots are
     empty, so two zero slots are passed over with one 64-bit test. *)
  let slots = lay.Layout.block_size / 4 in
  for m = 0 to lay.Layout.rmap_blocks - 1 do
    match read (lay.Layout.rmap_start + m) with
    | None -> ()
    | Some buf ->
        let i = ref 0 in
        while !i < slots do
          if !i + 1 < slots && Bytes.get_int64_le buf (!i * 4) = 0L then i := !i + 2
          else begin
            let shadow = Codec.read_u32 buf (!i * 4) in
            if shadow > 0 && shadow < lay.Layout.num_blocks then
              claim shadow replica_map;
            incr i
          end
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
  (* Pass 3: bitmaps vs reality. Bits [0, bits) of each bitmap block
     are compared with its mirror, from word [word] on, one 64-bit word
     at a time; bits past [bits] are padding and are masked off. Each
     bit that differs goes to [finding i marked], in bit order, which
     notes it and says whether a repair flips it. *)
  let check_bitmap blk what mirror ~word ~bits finding =
    match read blk with
    | None -> note `Error false "%s block %d unreadable" what blk
    | Some buf ->
        let dirty = ref false in
        let words = (bits + 63) / 64 in
        let tail =
          if bits land 63 = 0 then -1L else Int64.pred (Int64.shift_left 1L (bits land 63))
        in
        for w = 0 to words - 1 do
          let d =
            Int64.logand
              (Int64.logxor (Bytes.get_int64_le buf (w * 8))
                 (Bytes.get_int64_le mirror ((word + w) * 8)))
              (if w = words - 1 then tail else -1L)
          in
          if d <> 0L then
            for j = 0 to 63 do
              if Int64.logand (Int64.shift_right_logical d j) 1L <> 0L then begin
                let i = (w * 64) + j in
                let marked = Bitmap.get buf i in
                if finding i marked && repair then begin
                  Bitmap.set buf i (not marked);
                  dirty := true
                end
              end
            done
        done;
        if !dirty then ignore (dev.Dev.write blk buf)
  in
  for g = 0 to lay.Layout.ngroups - 1 do
    let ds = Layout.data_start lay g in
    check_bitmap (Layout.bitmap_block lay g) "bitmap" reach_bits ~word:(g * dwords)
      ~bits:dbits (fun i marked ->
        if marked then
          note `Warning repair "block %d marked allocated but unreachable (leak)" (ds + i)
        else note `Error repair "block %d in use but free in the bitmap" (ds + i);
        true);
    check_bitmap (Layout.ibitmap_block lay g) "inode bitmap" live_bits ~word:(g * iwords)
      ~bits:ipg (fun i marked ->
        let ino = (g * ipg) + i + 1 in
        if marked then begin
          note `Warning repair "inode %d marked allocated but free" ino;
          true
        end
        else if ino > 1 then begin
          note `Error repair "inode %d live but free in the inode bitmap" ino;
          true
        end
        else false)
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
  Hashtbl.iter (fun _ buf -> Arena.put arena buf) cache;
  Ok { findings = List.rev !findings; clean = !errors = 0 }

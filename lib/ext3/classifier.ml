open Iron_util
module Jrec = Iron_jrnl.Jrec
module Jrnl = Iron_jrnl.Jrnl

let block_types =
  [
    "inode"; "dir"; "bitmap"; "i-bitmap"; "indirect"; "data"; "super";
    "g-desc"; "j-super"; "j-revoke"; "j-desc"; "j-commit"; "j-data";
  ]

(* Build the dynamic-label table by walking every allocated inode. *)
let dynamic_labels raw lay =
  let labels = Hashtbl.create 256 in
  let in_data_region b =
    match Layout.group_of_block lay b with
    | Some g -> b >= Layout.data_start lay g
    | None -> false
  in
  let mark b l = if in_data_region b then Hashtbl.replace labels b l in
  let iter_ptrs b f =
    match (try Some (raw b) with _ -> None) with
    | None -> ()
    | Some blk ->
        for i = 0 to lay.Layout.ptrs_per_block - 1 do
          let p = Codec.read_u32 blk (i * 4) in
          if p > 0 && p < lay.Layout.num_blocks then f p
        done
  in
  let walk_indirect depth b =
    (* depth 1: children are data; 2: children are indirect of depth 1; … *)
    let rec go depth b =
      mark b "indirect";
      if depth > 1 then iter_ptrs b (go (depth - 1))
      else iter_ptrs b (fun p -> mark p "leaf")
    in
    go depth b
  in
  (* Consecutive inode numbers share an itable block: memoize the last
     block read so the walk costs one [raw] per itable block, not one
     per inode. *)
  let last_blk = ref (-1) in
  let last_buf = ref None in
  let itable_block blk =
    if blk = !last_blk then !last_buf
    else begin
      let r = try Some (raw blk) with _ -> None in
      last_blk := blk;
      last_buf := r;
      r
    end
  in
  let leaf_label = ref "data" in
  let classify_inode ino =
    let blk, off = Layout.inode_location lay ino in
    match itable_block blk with
    | None -> ()
    | Some buf when Bytes.get buf off = '\000' -> () (* free: skip decode *)
    | Some buf ->
        let i = Inode.decode lay buf off in
        (match i.Inode.kind with
        | Inode.Free | Inode.Symlink -> ()
        | Inode.Regular | Inode.Directory ->
            leaf_label :=
              (match i.Inode.kind with
              | Inode.Directory -> "dir"
              | Inode.Regular | Inode.Free | Inode.Symlink -> "data");
            let lbl = !leaf_label in
            Array.iter (fun p -> if p > 0 then mark p lbl) i.Inode.direct;
            if i.Inode.ind > 0 then begin
              mark i.Inode.ind "indirect";
              iter_ptrs i.Inode.ind (fun p -> mark p lbl)
            end;
            if i.Inode.dind > 0 then walk_indirect 2 i.Inode.dind;
            if i.Inode.tind > 0 then walk_indirect 3 i.Inode.tind;
            if i.Inode.parity > 0 then mark i.Inode.parity "parity")
  in
  (* The "leaf" placeholder from deep indirect walks means file data. *)
  for ino = 1 to Layout.total_inodes lay do
    classify_inode ino
  done;
  Hashtbl.iter
    (fun b l -> if l = "leaf" then Hashtbl.replace labels b "data")
    labels;
  labels

let classify raw =
  let sb =
    match Sb.decode (try raw 0 with _ -> Bytes.create 8) with
    | Ok sb -> Some sb
    | Error _ -> None
  in
  match sb with
  | None ->
      (* Unreadable superblock: only the static prefix is knowable. *)
      fun b -> if b = 0 then "super" else if b = 1 then "g-desc" else "?"
  | Some sb ->
      let lay =
        Layout.compute ~block_size:sb.Sb.block_size ~num_blocks:sb.Sb.num_blocks
      in
      (* Committed-but-not-yet-checkpointed metadata lives only in the
         journal; the oracle must see through it or freshly created
         structures would be invisible (the paper's tool understood the
         journal the same way). *)
      let overlay =
        Jrnl.committed_overlay Jrec.jbd ~geo:(Layout.journal_geo lay) raw
      in
      let raw' b =
        match Hashtbl.find_opt overlay b with Some c -> c | None -> raw b
      in
      let dyn = dynamic_labels raw' lay in
      (* Dynamic-metadata shadows (recorded in the rmap) present as
         replicas, wherever they were allocated. *)
      (for m = 0 to lay.Layout.rmap_blocks - 1 do
         match (try Some (raw' (lay.Layout.rmap_start + m)) with _ -> None) with
         | None -> ()
         | Some buf ->
             for i = 0 to (lay.Layout.block_size / 4) - 1 do
               let shadow = Codec.read_u32 buf (i * 4) in
               if shadow > 0 && shadow < lay.Layout.num_blocks then
                 Hashtbl.replace dyn shadow "replica"
             done
       done);
      let jend = lay.Layout.journal_start + lay.Layout.journal_len in
      fun b ->
        if b = 0 then "super"
        else if b = 1 then "g-desc"
        else if b = lay.Layout.journal_start then "j-super"
        else if b > lay.Layout.journal_start && b < jend then begin
          match (try Some (raw b) with _ -> None) with
          | None -> "j-data"
          | Some blk ->
              let m = Codec.read_u32 blk 0 in
              if m = Jrec.jbd.desc_magic then "j-desc"
              else if m = Jrec.jbd.commit_magic then "j-commit"
              else if Some m = Jrec.jbd.revoke_magic then "j-revoke"
              else "j-data"
        end
        else if b >= lay.Layout.cksum_start
                && b < lay.Layout.cksum_start + lay.Layout.cksum_blocks then
          "cksum"
        else if b >= lay.Layout.rlog_start
                && b < lay.Layout.rlog_start + lay.Layout.rlog_blocks then
          "replica-log"
        else if b >= lay.Layout.rmap_start
                && b < lay.Layout.rmap_start + lay.Layout.rmap_blocks then
          "rmap"
        else if b >= lay.Layout.replica_start then "replica"
        else
          match Layout.group_of_block lay b with
          | None -> "?"
          | Some g ->
              if b = Layout.super_copy_block lay g then "super"
              else if b = Layout.bitmap_block lay g then "bitmap"
              else if b = Layout.ibitmap_block lay g then "i-bitmap"
              else if b >= Layout.itable_block lay g
                      && b < Layout.itable_block lay g + lay.Layout.itable_blocks
              then "inode"
              else (
                match Hashtbl.find_opt dyn b with
                | Some l -> l
                | None -> "?")

(* Type-aware corruptions: each leaves the block structurally plausible
   but semantically wrong (§4.2 "a block similar to the expected one but
   with one or more corrupted fields"). *)
let corrupt_field ty =
  match ty with
  | "inode" ->
      (* Zero every allocated inode's link count and inflate its size:
         open should trip on the size; unlink trusts the link count. *)
      Some
        (fun buf ->
          let n = Bytes.length buf / 128 in
          for i = 0 to n - 1 do
            let off = i * 128 in
            let kind = Char.code (Bytes.get buf off) in
            if kind <> 0 then begin
              Bytes.set_uint16_le buf (off + 2) 0 (* links_count *);
              (* Only regular files get the impossible size: corrupting
                 every directory's size would mask the link-count path
                 behind earlier failures. *)
              if kind = 1 then Codec.write_u32 buf (off + 12) 0xFFFFFF0
            end
          done)
  | "dir" ->
      (* Point every entry at inode 2 (the root): in-range, allocated,
         but entirely the wrong object. *)
      Some
        (fun buf ->
          let entries = Dirent.decode buf in
          let entries' = List.map (fun (n, _) -> (n, 2)) entries in
          ignore (Dirent.encode buf entries'))
  | "bitmap" | "i-bitmap" ->
      (* All bits set: everything looks allocated; allocation sees a
         full group. *)
      Some (fun buf -> Bytes.fill buf 0 (Bytes.length buf) '\xFF')
  | "indirect" ->
      (* Out-of-range pointers. *)
      Some
        (fun buf ->
          for i = 0 to (Bytes.length buf / 4) - 1 do
            if Codec.read_u32 buf (i * 4) <> 0 then
              Codec.write_u32 buf (i * 4) 0xFFFFF0
          done)
  | "super" | "j-super" | "j-desc" | "j-commit" | "j-revoke" ->
      (* Kill the magic: a type check must notice. *)
      Some (fun buf -> Codec.write_u32 buf 0 0xDEADBEEF)
  | "g-desc" ->
      (* Scramble the descriptor table's pointers. *)
      Some
        (fun buf ->
          for i = 0 to min 63 ((Bytes.length buf / 4) - 1) do
            Codec.write_u32 buf (i * 4) 0xEEEE0
          done)
  | _ -> None

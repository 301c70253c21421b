type t = {
  block_size : int;
  num_blocks : int;
  inode_size : int;
  inodes_per_block : int;
  direct_ptrs : int;
  ptrs_per_block : int;
  journal_start : int;
  journal_len : int;
  groups_start : int;
  blocks_per_group : int;
  itable_blocks : int;
  inodes_per_group : int;
  ngroups : int;
  cksum_start : int;
  cksum_blocks : int;
  rlog_start : int;
  rlog_blocks : int;
  rmap_start : int;
  rmap_blocks : int;
  replica_start : int;
  replica_blocks : int;
  cksum_per_block : int;
}

let root_ino = 2
let digest_size = 20

let make ~block_size ~num_blocks =
  let inode_size = 128 in
  let inodes_per_block = block_size / inode_size in
  let itable_blocks = 4 in
  let inodes_per_group = itable_blocks * inodes_per_block in
  (* Journal sized with the volume (real ext3 defaults are far larger
     still); a cramped journal forces a checkpoint at every commit and
     distorts relative costs. *)
  let journal_len = max 64 (num_blocks / 16) in
  let journal_start = 2 in
  let groups_start = journal_start + journal_len in
  (* The group-descriptor table is a single block (block 1): 20 bytes
     per group, so at most [block_size / 20] groups. Small volumes keep
     the historical 256-block groups; larger ones double the group size
     until every descriptor fits, bounded by what one block bitmap can
     cover. *)
  let gd_per_block = block_size / 20 in
  let bitmap_bits = block_size * 8 in
  let blocks_per_group =
    let rec widen bpg =
      if (num_blocks - groups_start) / bpg > gd_per_block then widen (bpg * 2)
      else bpg
    in
    widen 256
  in
  let cksum_per_block = block_size / digest_size in
  let cksum_blocks = (num_blocks + cksum_per_block - 1) / cksum_per_block in
  let rmap_blocks = ((num_blocks * 4) + block_size - 1) / block_size in
  let rlog_blocks = 64 in
  (* Replica slots depend on ngroups; solve by iterating downward. *)
  let fits ngroups =
    let replica_blocks = 2 + (ngroups * (2 + itable_blocks)) in
    groups_start
    + (ngroups * blocks_per_group)
    + cksum_blocks + rlog_blocks + rmap_blocks + replica_blocks
    <= num_blocks
  in
  let rec find n = if n >= 1 && not (fits n) then find (n - 1) else n in
  if blocks_per_group > bitmap_bits then
    Error "volume too large for one-block bitmaps"
  else
    let ngroups = find ((num_blocks - groups_start) / blocks_per_group) in
    if ngroups < 1 then Error "device too small"
    else
      let replica_blocks = 2 + (ngroups * (2 + itable_blocks)) in
      let replica_start = num_blocks - replica_blocks in
      let rmap_start = replica_start - rmap_blocks in
      let rlog_start = rmap_start - rlog_blocks in
      let cksum_start = rlog_start - cksum_blocks in
      Ok
        {
          block_size;
          num_blocks;
          inode_size;
          inodes_per_block;
          direct_ptrs = 4;
          ptrs_per_block = 16;
          journal_start;
          journal_len;
          groups_start;
          blocks_per_group;
          itable_blocks;
          inodes_per_group;
          ngroups;
          cksum_start;
          cksum_blocks;
          rlog_start;
          rlog_blocks;
          rmap_start;
          rmap_blocks;
          replica_start;
          replica_blocks;
          cksum_per_block;
        }

let compute ~block_size ~num_blocks =
  match make ~block_size ~num_blocks with
  | Ok l -> l
  | Error why -> failwith ("Layout.compute: " ^ why)

let group_base l g = l.groups_start + (g * l.blocks_per_group)
let super_copy_block l g = group_base l g
let bitmap_block l g = group_base l g + 1
let ibitmap_block l g = group_base l g + 2
let itable_block l g = group_base l g + 3
let data_start l g = group_base l g + 3 + l.itable_blocks
let data_blocks_per_group l = l.blocks_per_group - 3 - l.itable_blocks

let group_of_block l b =
  if b < l.groups_start || b >= l.groups_start + (l.ngroups * l.blocks_per_group)
  then None
  else Some ((b - l.groups_start) / l.blocks_per_group)

let group_of_inode l ino = (ino - 1) / l.inodes_per_group

let inode_location l ino =
  let g = group_of_inode l ino in
  let idx = (ino - 1) mod l.inodes_per_group in
  (itable_block l g + (idx / l.inodes_per_block),
   idx mod l.inodes_per_block * l.inode_size)

let total_inodes l = l.ngroups * l.inodes_per_group
let total_data_blocks l = l.ngroups * data_blocks_per_group l

let cksum_location l b =
  (l.cksum_start + (b / l.cksum_per_block), b mod l.cksum_per_block * digest_size)

let replica_targets l =
  let per_group g =
    bitmap_block l g :: ibitmap_block l g
    :: List.init l.itable_blocks (fun i -> itable_block l g + i)
  in
  1 :: l.journal_start :: List.concat (List.init l.ngroups per_group)

let rmap_location l b =
  let per = l.block_size / 4 in
  (l.rmap_start + (b / per), b mod per * 4)

(* [replica_targets]'s index, by arithmetic: slots 0 and 1, then
   [2 + itable_blocks] slots per group, one for each block from the
   group's bitmap to its last inode-table block. *)
let replica_of l b =
  if b = 1 then Some l.replica_start
  else if b = l.journal_start then Some (l.replica_start + 1)
  else
    match group_of_block l b with
    | None -> None
    | Some g ->
        let per_group = 2 + l.itable_blocks in
        let off = b - bitmap_block l g in
        if off >= 0 && off < per_group then
          Some (l.replica_start + 2 + (g * per_group) + off)
        else None

let journal_geo l =
  {
    Iron_jrnl.Jrnl.jsb = l.journal_start;
    jfirst = l.journal_start + 1;
    jend = l.journal_start + l.journal_len;
    num_blocks = l.num_blocks;
  }

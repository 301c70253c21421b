open Iron_util
module Errno = Iron_vfs.Errno

type state = Clean | Dirty

type t = {
  block_size : int;
  num_blocks : int;
  state : state;
  mount_count : int;
  free_blocks : int;
  free_inodes : int;
  features : int;
}

let magic = 0xEF531705

let encode t buf =
  let w = Codec.writer buf in
  Codec.put_u32 w magic;
  Codec.put_u32 w t.block_size;
  Codec.put_u32 w t.num_blocks;
  Codec.put_u32 w (match t.state with Clean -> 1 | Dirty -> 2);
  Codec.put_u32 w t.mount_count;
  Codec.put_u32 w t.free_blocks;
  Codec.put_u32 w t.free_inodes;
  Codec.put_u32 w t.features

let decode buf =
  try
    let r = Codec.reader buf in
    let m = Codec.get_u32 r in
    if m <> magic then Error Errno.EUCLEAN
    else
      let block_size = Codec.get_u32 r in
      let num_blocks = Codec.get_u32 r in
      let state_raw = Codec.get_u32 r in
      let mount_count = Codec.get_u32 r in
      let free_blocks = Codec.get_u32 r in
      let free_inodes = Codec.get_u32 r in
      let features = Codec.get_u32 r in
      if block_size < 512 || block_size > 65536 || num_blocks < 8 then
        Error Errno.EUCLEAN
      else if free_blocks > num_blocks then Error Errno.EUCLEAN
      else if Result.is_error (Layout.make ~block_size ~num_blocks) then
        Error Errno.EUCLEAN
      else
        let state = if state_raw = 1 then Clean else Dirty in
        Ok { block_size; num_blocks; state; mount_count; free_blocks; free_inodes; features }
  with Codec.Decode_error _ -> Error Errno.EUCLEAN

let features_of_profile (p : Profile.t) =
  (if p.Profile.meta_checksum then 1 else 0)
  lor (if p.Profile.data_checksum then 2 else 0)
  lor (if p.Profile.meta_replica then 4 else 0)
  lor (if p.Profile.data_parity then 8 else 0)
  lor if Profile.tc p then 16 else 0

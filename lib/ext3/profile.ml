module Jrnl = Iron_jrnl.Jrnl

type t = {
  name : string;
  bugs_fixed : bool;
  mode : Jrnl.mode;
  meta_checksum : bool;
  data_checksum : bool;
  meta_replica : bool;
  data_parity : bool;
  data_remap : bool;
}

let ext3 =
  {
    name = "ext3";
    bugs_fixed = false;
    mode = Jrnl.Ordered;
    meta_checksum = false;
    data_checksum = false;
    meta_replica = false;
    data_parity = false;
    data_remap = false;
  }

let ixt3_with ?(mc = false) ?(mr = false) ?(dc = false) ?(dp = false)
    ?(tc = false) ?(rm = false) () =
  {
    name = "ixt3";
    bugs_fixed = true;
    mode = (if tc then Jrnl.Tc_checksummed else Jrnl.Ordered);
    meta_checksum = mc;
    data_checksum = dc;
    meta_replica = mr;
    data_parity = dp;
    data_remap = rm;
  }

let ixt3 = ixt3_with ~mc:true ~mr:true ~dc:true ~dp:true ~tc:true ()

let tc p = p.mode = Jrnl.Tc_checksummed

let variant_label p =
  let parts =
    List.filter_map
      (fun (on, l) -> if on then Some l else None)
      [
        (p.meta_checksum, "Mc");
        (p.meta_replica, "Mr");
        (p.data_checksum, "Dc");
        (p.data_parity, "Dp");
        (tc p, "Tc");
        (p.data_remap, "Rm");
      ]
  in
  match parts with [] -> "(base)" | _ -> String.concat " " parts

let any_iron p =
  p.meta_checksum || p.data_checksum || p.meta_replica || p.data_parity
  || tc p || p.data_remap

type level = Info | Warning | Error

type entry = {
  time : float; (* simulated ms at emission *)
  level : level;
  subsystem : string;
  message : string;
}

type t = {
  clock : unit -> float;
  mutable entries : entry list; (* newest first *)
}

exception Panic of string

let create ?(clock = fun () -> 0.0) () = { clock; entries = [] }

let push t level subsystem message =
  t.entries <- { time = t.clock (); level; subsystem; message } :: t.entries

let log t level subsystem fmt =
  Format.kasprintf (fun message -> push t level subsystem message) fmt

let info t sub fmt = log t Info sub fmt
let warn t sub fmt = log t Warning sub fmt
let error t sub fmt = log t Error sub fmt

let panic t subsystem fmt =
  Format.kasprintf
    (fun message ->
      push t Error subsystem message;
      raise (Panic (subsystem ^ ": " ^ message)))
    fmt

let entries t = List.rev t.entries
let errors t = List.rev (List.filter (fun e -> e.level = Error) t.entries)
let clear t = t.entries <- []

(* Allocation-free substring scan; [needle] is expected lowercase. *)
let contains_sub ~needle hay =
  let nlen = String.length needle and hlen = String.length hay in
  let limit = hlen - nlen in
  let rec matches i j =
    j = nlen || (hay.[i + j] = needle.[j] && matches i (j + 1))
  in
  let rec at i = i <= limit && (matches i 0 || at (i + 1)) in
  nlen = 0 || at 0

(* Each message is lowercased once and then scanned once per word. *)
let mentions entries words =
  List.exists
    (fun e ->
      let msg = String.lowercase_ascii e.message in
      List.exists (fun word -> contains_sub ~needle:word msg) words)
    entries

let pp_entry fmt e =
  let lvl =
    match e.level with Info -> "info" | Warning -> "warn" | Error -> "ERROR"
  in
  Format.fprintf fmt "[%10.3f] [%s] %s: %s" e.time lvl e.subsystem e.message

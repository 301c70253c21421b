type error = Eio | Enxio

let error_to_string = function Eio -> "EIO" | Enxio -> "ENXIO"

type t = {
  block_size : int;
  num_blocks : int;
  read : int -> (bytes, error) result;
  read_into : int -> bytes -> (unit, error) result;
  write : int -> bytes -> (unit, error) result;
  sync : unit -> (unit, error) result;
  now : unit -> float;
}


let read_exn t b =
  match t.read b with
  | Ok data -> data
  | Error e -> failwith (Printf.sprintf "read %d: %s" b (error_to_string e))

let write_exn t b data =
  match t.write b data with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "write %d: %s" b (error_to_string e))

(* Observation layer: stacks like the fault injector, forwarding every
   request below while feeding the metrics registry. Durations come
   from the wrapped device's own (simulated) clock, so the numbers are
   deterministic wherever the device is. [read_into] is the same
   request as [read] with the caller supplying the buffer, so it is
   counted under the same [disk.read] path — switching a call site to
   the zero-copy read changes nothing in the exported metrics. *)
let observe obs t =
  Iron_obs.Obs.set_clock obs t.now;
  let timed path f =
    let t0 = t.now () in
    let r = f () in
    Iron_obs.Obs.incr obs path;
    Iron_obs.Obs.observe obs (path ^ ".ms") (t.now () -. t0);
    (match r with
    | Error _ -> Iron_obs.Obs.incr obs (path ^ ".error")
    | Ok _ -> ());
    r
  in
  {
    t with
    read = (fun b -> timed "disk.read" (fun () -> t.read b));
    read_into = (fun b buf -> timed "disk.read" (fun () -> t.read_into b buf));
    write = (fun b data -> timed "disk.write" (fun () -> t.write b data));
    sync = (fun () -> timed "disk.sync" (fun () -> t.sync ()));
  }

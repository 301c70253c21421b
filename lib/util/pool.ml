(* A fixed-size Domain worker pool over one hand-rolled Mutex/Condition
   work queue. See pool.mli for the determinism contract. *)

type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  q : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  size : int;
}

(* Tasks are pre-wrapped by [map] and never raise; a stray exception
   from a worker would tear down the domain, so belt-and-braces. *)
let worker_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.q && not t.stop do
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.q then (* stop && empty: drain-then-exit *)
      Mutex.unlock t.m
    else begin
      let task = Queue.pop t.q in
      Mutex.unlock t.m;
      (try task () with _ -> ());
      loop ()
    end
  in
  loop ()

(* Asking for more workers than the runtime recommends only adds
   scheduling overhead: on a 1-core host, [-j4] used to *double* the
   fig2 wall time. The caller's own domain also counts against the
   recommendation, hence the [- 1] (floored at 1). *)
let clamp_workers n =
  max 1 (min n (max 1 (Domain.recommended_domain_count () - 1)))

let create n =
  let size = clamp_workers n in
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      q = Queue.create ();
      stop = false;
      workers = [];
      size;
    }
  in
  t.workers <- List.init size (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m;
  let ws = t.workers in
  t.workers <- [];
  List.iter Domain.join ws

let with_pool n f =
  let t = create n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Re-raise the lowest-indexed failure, after every job has run. *)
let collect results =
  let err =
    Array.fold_left
      (fun acc r ->
        match (acc, r) with
        | None, Some (Error e) -> Some e
        | acc, _ -> acc)
      None results
  in
  match err with
  | Some e -> raise e
  | None ->
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error _) | None -> assert false)
           results)

(* Executor telemetry: [on_job] is called once per finished job with
   wall-clock queue-wait and run durations (milliseconds). It runs in
   the worker domain that executed the job, so it must be domain-safe;
   exceptions it raises are swallowed — telemetry never fails a job. *)
let notify on_job ~queue_ms ~run_ms =
  match on_job with
  | None -> ()
  | Some f -> ( try f ~queue_ms ~run_ms with _ -> ())

(* Submission granularity. One queue entry per job meant one
   lock/signal round-trip per job; batching ~16 jobs per entry
   amortizes the queue traffic while leaving enough entries for the
   workers to load-balance. Small batches (at least ~4 entries per
   worker when the input allows it) keep the tail from serializing. *)
let max_chunk = 16
let min_chunks_per_worker = 4

let chunk_size t n =
  let target = min_chunks_per_worker * t.size in
  max 1 (min max_chunk ((n + target - 1) / target))

let map ?on_job t f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let chunk = chunk_size t n in
    let nchunks = (n + chunk - 1) / chunk in
    let remaining = ref nchunks in
    let alldone = Condition.create () in
    Mutex.lock t.m;
    for c = 0 to nchunks - 1 do
      let lo = c * chunk in
      let hi = min n (lo + chunk) in
      let enqueued = Unix.gettimeofday () in
      Queue.push
        (fun () ->
          (* Run the whole chunk without touching the lock; each job is
             individually fenced so one raise never skips its batch
             mates (the exactly-once contract). *)
          let local = Array.make (hi - lo) None in
          for i = lo to hi - 1 do
            let started = Unix.gettimeofday () in
            local.(i - lo) <- Some (try Ok (f input.(i)) with e -> Error e);
            let finished = Unix.gettimeofday () in
            notify on_job
              ~queue_ms:((started -. enqueued) *. 1000.)
              ~run_ms:((finished -. started) *. 1000.)
          done;
          Mutex.lock t.m;
          Array.blit local 0 results lo (hi - lo);
          decr remaining;
          if !remaining = 0 then Condition.signal alldone;
          Mutex.unlock t.m)
        t.q
    done;
    Condition.broadcast t.nonempty;
    while !remaining > 0 do
      Condition.wait alldone t.m
    done;
    Mutex.unlock t.m;
    collect results
  end

let map_jobs ?on_job ~jobs f xs =
  let n = List.length xs in
  if jobs <= 1 || n <= 1 || clamp_workers (min jobs n) = 1 then begin
    (* The sequential baseline: same exactly-once + deferred-raise
       semantics, no domains. A pool clamped to one worker would run
       the same jobs in the same order while the caller sleeps, and
       spawning and joining that domain on every call costs time and,
       in a long-lived process, heap the runtime does not give back. *)
    let results = Array.make n None in
    List.iteri
      (fun i x ->
        let started = Unix.gettimeofday () in
        results.(i) <- Some (try Ok (f x) with e -> Error e);
        let finished = Unix.gettimeofday () in
        notify on_job ~queue_ms:0. ~run_ms:((finished -. started) *. 1000.))
      xs;
    collect results
  end
  else with_pool (min jobs n) (fun t -> map ?on_job t f xs)

let default_jobs () = Domain.recommended_domain_count ()

(* One fan-out loop over OCaml 5 domains: the caller and [domains - 1]
   spawned domains claim contiguous chunks of job indices from one
   atomic cursor, then join. See pool.mli for the determinism
   contract. *)

(* Chunk size: at most 16 jobs, and at least four chunks per domain
   when the input allows, so the tail does not serialize on one
   domain. A domain's consecutive jobs stay adjacent in input order,
   which the fingerprint executor's speculative restore counts on. *)
let max_chunk = 16
let min_chunks_per_domain = 4

let chunk_size ~domains n =
  let target = min_chunks_per_domain * domains in
  max 1 (min max_chunk ((n + target - 1) / target))

let map_on ~domains f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  let domains = max 1 (min domains n) in
  let chunk = chunk_size ~domains n in
  let cursor = Atomic.make 0 in
  let results = Array.make n None in
  (* Each job is fenced on its own, so one raise never skips its chunk
     mates (the exactly-once contract). *)
  let rec work () =
    let lo = Atomic.fetch_and_add cursor chunk in
    if lo < n then begin
      for i = lo to min n (lo + chunk) - 1 do
        results.(i) <- Some (try Ok (f input.(i)) with e -> Error e)
      done;
      work ()
    end
  in
  let spawned = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join spawned;
  (* In index order, so the lowest-indexed failure is the one raised. *)
  List.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false)
    (Array.to_list results)

(* Asking for more domains than the runtime recommends only adds
   scheduling overhead: on a 1-core host, [-j4] used to double the
   fig2 wall time. One recommended domain is held back (floored at 1),
   so a host that recommends two or fewer runs every call on the
   caller. *)
let clamp_workers n =
  max 1 (min n (max 1 (Domain.recommended_domain_count () - 1)))

let map_jobs ~jobs f xs =
  map_on ~domains:(clamp_workers (min jobs (List.length xs))) f xs

let default_jobs () = Domain.recommended_domain_count ()

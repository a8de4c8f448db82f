type report = {
  results : Job.result array;
  jobs : int;
  wall_s : float;
  base_atoms : int;
  hits : int;
  disk_hits : int;
  misses : int;
  fresh : Asp.Solver.Stats.t;
  ground : Asp.Grounder.Stats.t;
}

let tally results =
  let hits = ref 0 in
  let disk_hits = ref 0 in
  let fresh = Asp.Solver.Stats.create () in
  let ground = Asp.Grounder.Stats.create () in
  (* a program solved once but hit by several jobs of this sweep counts its
     stats once: aggregate over distinct fresh fingerprints *)
  let counted = Hashtbl.create 64 in
  Array.iter
    (fun (r : Job.result) ->
      match r.Job.source with
      | Cache.Memory -> incr hits
      | Cache.Disk -> incr disk_hits
      | Cache.Fresh ->
          let key = Fingerprint.to_hex r.Job.fingerprint in
          if not (Hashtbl.mem counted key) then begin
            Hashtbl.replace counted key ();
            Asp.Solver.Stats.accumulate fresh r.Job.stats;
            Asp.Grounder.Stats.add ~into:ground r.Job.gstats
          end)
    results;
  (!hits, !disk_hits, fresh, ground)

let run_prepared ?oversubscribe ?jobs ?cache prepared deltas =
  let t0 = Unix.gettimeofday () in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let deltas = Array.of_list deltas in
  let results =
    Pool.map ?oversubscribe ~jobs
      (fun index ->
        let delta = deltas.(index) in
        let fingerprint = Job.fingerprint prepared delta in
        let (models, stats, gstats), source =
          Cache.find_or_compute_src cache fingerprint (fun () ->
              Job.solve prepared delta)
        in
        {
          Job.index;
          delta;
          fingerprint;
          models;
          stats;
          gstats;
          cached = source <> Cache.Fresh;
          source;
        })
      (Array.length deltas)
  in
  let hits, disk_hits, fresh, ground = tally results in
  {
    results;
    jobs;
    wall_s = Unix.gettimeofday () -. t0;
    base_atoms = Job.base_atoms prepared;
    hits;
    disk_hits;
    misses = Array.length results - hits - disk_hits;
    fresh;
    ground;
  }

let run ?oversubscribe ?jobs ?cache spec =
  let t0 = Unix.gettimeofday () in
  let prepared = Job.prepare spec in
  let report =
    run_prepared ?oversubscribe ?jobs ?cache prepared spec.Job.deltas
  in
  (* fold the preparation time into the report: run = prepare + sweep *)
  { report with wall_s = Unix.gettimeofday () -. t0 }

let hit_rate r =
  let n = Array.length r.results in
  if n = 0 then 0.0
  else float_of_int (r.hits + r.disk_hits) /. float_of_int n

let render ?(verbose = false) r =
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "sweep: %d jobs on %d domain%s in %.3fs (base universe %d atoms)\n"
    (Array.length r.results) r.jobs
    (if r.jobs = 1 then "" else "s")
    r.wall_s r.base_atoms;
  p "cache: %d memory hits / %d disk hits / %d fresh solves (%.1f%% hit rate)\n"
    r.hits r.disk_hits r.misses
    (100.0 *. hit_rate r);
  p "fresh solver work: %s\n" (Asp.Solver.Stats.to_string r.fresh);
  p "fresh grounder work: %s\n" (Asp.Grounder.Stats.to_string r.ground);
  if verbose then
    Array.iter
      (fun (res : Job.result) ->
        p "  [%3d]%s %-28s %d model%s  %s\n" res.Job.index
          (match res.Job.source with
          | Cache.Memory -> "*"
          | Cache.Disk -> "+"
          | Cache.Fresh -> " ")
          (Delta.label res.Job.delta)
          (List.length res.Job.models)
          (if List.length res.Job.models = 1 then "" else "s")
          (Fingerprint.to_hex res.Job.fingerprint))
      r.results;
  Buffer.contents buf

let to_json r =
  Json.Obj
    [
      ("jobs", Json.Int r.jobs);
      ("deltas", Json.Int (Array.length r.results));
      ("wall_s", Json.Float r.wall_s);
      ("base_atoms", Json.Int r.base_atoms);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int r.hits);
            ("disk_hits", Json.Int r.disk_hits);
            ("misses", Json.Int r.misses);
            ("hit_rate", Json.Float (hit_rate r));
          ] );
      ("fresh", Asp.Solver.Stats.to_json r.fresh);
      ("ground", Asp.Grounder.Stats.to_json r.ground);
      ( "results",
        Json.List (Array.to_list (Array.map Job.result_to_json r.results)) );
    ]

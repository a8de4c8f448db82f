type mode = Enumerate of int option | Optimal

type spec = {
  base : Asp.Program.t;
  compile : Delta.t -> Asp.Program.t;
  deltas : Delta.t list;
  mode : mode;
  max_atoms : int option;
}

let spec ?(mode = Enumerate None) ?max_atoms ~compile ~deltas base =
  { base; compile; deltas; mode; max_atoms }

type result = {
  index : int;
  delta : Delta.t;
  fingerprint : Fingerprint.t;
  models : Asp.Model.t list;
  stats : Asp.Solver.Stats.t;
  gstats : Asp.Grounder.Stats.t;
  cached : bool;
  source : Cache.source;
}

let result_to_json r =
  Json.Obj
    [
      ("label", Json.String (Delta.label r.delta));
      ("fingerprint", Json.String (Fingerprint.to_hex r.fingerprint));
      ("models", Json.Int (List.length r.models));
      ("cached", Json.Bool r.cached);
      ("source", Json.String (Cache.source_to_string r.source));
    ]

type prepared = {
  p_spec : spec;
  p_base_fp : Fingerprint.t;
  p_mode_fp : Fingerprint.t;
  p_ground : Asp.Grounder.prepared;
}

let mode_fingerprint s =
  Fingerprint.ints
    [
      (match s.mode with
      | Enumerate None -> 0
      | Enumerate (Some l) -> 1 + l
      | Optimal -> -1);
      (* the retired solver guess cap's slot, held at its unset value
         so fingerprints (and store addresses) stay put *)
      -1;
      Option.value ~default:(-1) s.max_atoms;
    ]

let prepare s =
  (* prepare runs on the calling domain, before any sweep fans out: safe
     to parallelize its fixpoint rounds. [solve] is not — it runs inside
     Pool workers during sweeps, where nested spawns would oversubscribe *)
  {
    p_spec = s;
    p_base_fp = Fingerprint.program s.base;
    p_mode_fp = mode_fingerprint s;
    p_ground =
      Asp.Grounder.prepare ?max_atoms:s.max_atoms ~par:(Pool.grounder_par ())
        s.base;
  }

let prepared_spec p = p.p_spec

let base_atoms p = (Asp.Grounder.compiled_base p.p_ground).Asp.Interned.n_universe

let fingerprint p delta =
  Fingerprint.combine
    (Fingerprint.extend p.p_base_fp (p.p_spec.compile delta))
    p.p_mode_fp

let solve_increment ~mode ground increment =
  let gstats = Asp.Grounder.Stats.create () in
  let inc = Asp.Grounder.increment ~stats:gstats ground increment in
  let t0 = Unix.gettimeofday () in
  let compiled = Asp.Grounder.compile inc in
  let t_compile = Unix.gettimeofday () -. t0 in
  let models, stats =
    match mode with
    | Enumerate limit -> Asp.Solver.solve_interned ?limit ~optimal:false compiled
    | Optimal -> Asp.Solver.solve_interned ~optimal:true compiled
  in
  (* compiling is the solver's front end, as in [Solver.solve_with_stats] *)
  stats.Asp.Solver.Stats.wall_s <- stats.Asp.Solver.Stats.wall_s +. t_compile;
  (models, stats, gstats)

let solve p delta =
  solve_increment ~mode:p.p_spec.mode p.p_ground (p.p_spec.compile delta)

module Fp = Engine.Fingerprint

type level = { l_label : string; l_structure : Asp.Program.t }

type spec = {
  base : Asp.Program.t;
  levels : level list;
  candidates : Engine.Delta.t list;
  increment : Engine.Delta.t -> Asp.Program.t;
  keep : Asp.Model.t list -> bool;
  limit : int option;
  max_atoms : int;
}

type round = {
  r_level : int;
  r_label : string;
  r_survivors : Engine.Delta.t list;
  r_eliminated : Engine.Delta.t list;
}

type stats = {
  s_rounds : int;
  s_solves : int;
  s_hits : int;
  s_disk_hits : int;
  s_fresh : int;
  s_carried : int;
  s_ground : Asp.Grounder.Stats.t;
  s_wall_s : float;
}

type outcome = {
  rounds : round list;
  confirmed : Engine.Delta.t list;
  stats : stats;
}

type value = Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t

(* The accumulated structural fingerprint after [level] increments, under
   the engine's extend law: fingerprint(base ++ d) = extend (fp base) d. *)
let level_fp spec level =
  let rec go fp k = function
    | l :: rest when k < level -> go (Fp.extend fp l.l_structure) (k + 1) rest
    | _ -> fp
  in
  go (Fp.program spec.base) 0 spec.levels

let fingerprint spec level c = Fp.extend (level_fp spec level) (spec.increment c)

(* The refinement loop both drivers share: round 0 assesses every
   candidate against the base, then each level with a non-empty structure
   is absorbed through [advance] and the survivors are re-assessed, one
   after another in candidate order. *)
let drive spec ~advance ~assess =
  let rounds = ref [] and survivors = ref spec.candidates in
  let round lvl label =
    let surv, elim = List.partition assess !survivors in
    rounds :=
      { r_level = lvl; r_label = label; r_survivors = surv; r_eliminated = elim }
      :: !rounds;
    survivors := surv
  in
  round 0 "base";
  List.iteri
    (fun k l ->
      if Asp.Program.rules l.l_structure <> [] then advance l.l_structure;
      round (k + 1) l.l_label)
    spec.levels;
  (List.rev !rounds, !survivors)

let outcome ~t0 ~solves ~hits ~disk gstats (rounds, confirmed) =
  {
    rounds;
    confirmed;
    stats =
      {
        s_rounds = List.length rounds;
        s_solves = solves;
        s_hits = hits;
        s_disk_hits = disk;
        s_fresh = solves;
        s_carried = 0;
        s_ground = gstats;
        s_wall_s = Unix.gettimeofday () -. t0;
      };
  }

let run ?cache spec =
  if spec.candidates = [] then invalid_arg "Cegar.Inc.run: no candidates";
  let t0 = Unix.gettimeofday () in
  let cache = match cache with Some c -> c | None -> Engine.Cache.create () in
  let gstats = Asp.Grounder.Stats.create () in
  let prep =
    ref (Asp.Grounder.prepare ~max_atoms:spec.max_atoms ~stats:gstats spec.base)
  in
  let fp = ref (Fp.program spec.base) in
  let hits = ref 0 and disk = ref 0 and fresh = ref 0 in
  let advance structure =
    prep := Asp.Grounder.extend_prepare ~stats:gstats !prep structure;
    fp := Fp.extend !fp structure
  in
  let assess c =
    let inc = spec.increment c in
    let ((models, _, gs) : value), src =
      Engine.Cache.find_or_compute_src cache (Fp.extend !fp inc) (fun () ->
          Engine.Job.solve_increment ~mode:(Engine.Job.Enumerate spec.limit)
            !prep inc)
    in
    (match src with
    | Engine.Cache.Fresh ->
        incr fresh;
        Asp.Grounder.Stats.add ~into:gstats gs
    | Engine.Cache.Memory -> incr hits
    | Engine.Cache.Disk -> incr disk);
    spec.keep models
  in
  let result = drive spec ~advance ~assess in
  outcome ~t0 ~solves:!fresh ~hits:!hits ~disk:!disk gstats result

let run_scratch spec =
  if spec.candidates = [] then
    invalid_arg "Cegar.Inc.run_scratch: no candidates";
  let t0 = Unix.gettimeofday () in
  let gstats = Asp.Grounder.Stats.create () in
  let solves = ref 0 in
  let program = ref spec.base in
  let advance structure = program := Asp.Program.append !program structure in
  let assess c =
    incr solves;
    (* cold every time: the accumulated program plus the increment *)
    spec.keep
      (Asp.Solver.solve ?limit:spec.limit
         (Asp.Grounder.ground ~max_atoms:spec.max_atoms ~stats:gstats
            (Asp.Program.append !program (spec.increment c))))
  in
  let result = drive spec ~advance ~assess in
  outcome ~t0 ~solves:!solves ~hits:0 ~disk:0 gstats result

let to_json o =
  let labels ds =
    Json.List (List.map (fun d -> Json.String (Engine.Delta.label d)) ds)
  in
  let s = o.stats in
  let g = s.s_ground in
  Json.Obj
    [
      ( "rounds",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("level", Json.Int r.r_level);
                   ("label", Json.String r.r_label);
                   ("survivors", labels r.r_survivors);
                   ("eliminated", labels r.r_eliminated);
                 ])
             o.rounds) );
      ("confirmed", labels o.confirmed);
      ( "stats",
        Json.Obj
          [
            ("rounds", Json.Int s.s_rounds);
            ("solves", Json.Int s.s_solves);
            ("hits", Json.Int s.s_hits);
            ("disk_hits", Json.Int s.s_disk_hits);
            ("fresh", Json.Int s.s_fresh);
            ( "ground",
              Json.Obj
                [
                  ("fresh_rules", Json.Int g.Asp.Grounder.Stats.fresh_rules);
                  ("reused_rules", Json.Int g.Asp.Grounder.Stats.reused_rules);
                  ("wall_s", Json.Float g.Asp.Grounder.Stats.wall_s);
                ] );
            ("wall_s", Json.Float s.s_wall_s);
          ] );
    ]

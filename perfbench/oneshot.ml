(* The one-shot workload: a fixed seeded script of [cpsrisk]
   invocations, run one at a time, and its in-process traced replay. *)

open Perfbench
module J = Serve.Json

(* Invocations per run before percentiles are read off: the latency p90
   needs 100 samples, so whole script cycles continue past [--seconds]
   until there are that many. *)
let min_samples = 100

(* On a very slow host, stop adding cycles after this many seconds, so
   that a run still ends within three minutes. *)
let max_seconds = 150.0

type expect =
  | Exit of int  (** exit status, and the same output every time *)
  | Unsat
  | Models of int
  | Confirmed of string list
  | Answer of Oracle.mitigation_answer

type counts = {
  solver : Asp.Solver.Stats.t;
  ground : Asp.Grounder.Stats.t;
  mutable solves : int;
  mutable cheap : int;
  mutable cegar_solves : int;
  mutable carried : int;
  mutable evals : int;
  mutable hits : int;
  mutable fresh : int;
  mutable pruned : int;
  mutable busy : float;
  mutable capacity : float;
}

let counts () =
  {
    solver = Asp.Solver.Stats.create ();
    ground = Asp.Grounder.Stats.create ();
    solves = 0;
    cheap = 0;
    cegar_solves = 0;
    carried = 0;
    evals = 0;
    hits = 0;
    fresh = 0;
    pruned = 0;
    busy = 0.0;
    capacity = 0.0;
  }

type entry = {
  label : string;
  args : string list;
  expect : expect;
  replay : Span.t -> counts -> bool;
      (** the same work through the library's public functions; true when
          the answer checks out *)
}

let no_raise f = match f () with _ -> true | exception _ -> false

(* ------------------------------------------------------------------ *)
(* Replays of single subcommands                                       *)
(* ------------------------------------------------------------------ *)

let parse spans src = Span.with_ spans "parser" (fun () -> Asp.Parser.parse_program src)

let replay_lint_program src spans _ =
  no_raise (fun () ->
      Span.with_ spans "lint" (fun () ->
          let semantic = Analysis.Semlint.run (parse spans src) in
          if Lint.Diagnostic.has_errors (Lint.run_source src @ semantic) then failwith "lint"))

let replay_lint_model src spans _ =
  not
    (Lint.Diagnostic.has_errors
       (Span.with_ spans "lint" (fun () -> Lint.run_model_source src)))

let replay_model src spans _ =
  no_raise (fun () ->
      let m = Span.with_ spans "archimate.parse" (fun () -> Archimate.Text.parse src) in
      Span.with_ spans "archimate.validate" (fun () ->
          ignore (Cpsrisk.Report.model_inventory m);
          if not (Archimate.Validate.is_valid m) then failwith "invalid"))

let replay_analyze src spans _ =
  no_raise (fun () ->
      let p = parse spans src in
      Span.with_ spans "analysis" (fun () ->
          let info = Analysis.Infer.analyze p in
          ignore (Analysis.Report.render info);
          if Lint.Diagnostic.has_errors (Analysis.Semlint.run_infer info) then failwith "analysis"))

let replay_solve src expected spans c =
  let p = parse spans src in
  let gs = Asp.Grounder.Stats.create () in
  let g = Span.with_ spans "grounder.ground" (fun () -> Asp.Grounder.ground ~stats:gs p) in
  let models, st = Span.with_ spans "solver.solve" (fun () -> Asp.Solver.solve_with_stats g) in
  Asp.Grounder.Stats.add ~into:c.ground gs;
  Asp.Solver.Stats.accumulate c.solver st;
  c.solves <- c.solves + 1;
  if st.Asp.Solver.Stats.cheap then c.cheap <- c.cheap + 1;
  match expected with
  | Unsat -> models = []
  | Models n -> List.length models = n
  | Exit _ | Confirmed _ | Answer _ -> false

let replay_refine expected spans c =
  let o = Span.with_ spans "cegar" (fun () -> Cpsrisk.Pipeline.refine_hierarchy ()) in
  c.cegar_solves <- c.cegar_solves + o.Cegar.Inc.stats.Cegar.Inc.s_solves;
  c.carried <- c.carried + o.Cegar.Inc.stats.Cegar.Inc.s_carried;
  List.map Engine.Delta.label o.Cegar.Inc.confirmed = expected

let answer_of = function
  | Cpsrisk.Pipeline.Frontier_solution s -> Oracle.Optimal (Oracle.of_solution s)
  | Cpsrisk.Pipeline.Frontier_front f -> Oracle.Pareto (List.map Oracle.of_solution f)
  | Cpsrisk.Pipeline.Frontier_curve c ->
      Oracle.Curve (List.map (fun (b, s) -> (b, Oracle.of_solution s)) c)

let frontier = function
  | `Hierarchy -> Cpsrisk.Hierarchy.frontier ()
  | `Water_tank -> Cpsrisk.Pipeline.water_tank_frontier ()

let pipeline_request = function
  | `Optimal b -> Cpsrisk.Pipeline.Frontier_optimal (Some b)
  | `Pareto -> Cpsrisk.Pipeline.Frontier_pareto
  | `Budgets bs -> Cpsrisk.Pipeline.Frontier_sweep bs

let replay_mitigate case request expected spans c =
  let f = Span.with_ spans "grounder.prepare" (fun () -> frontier case) in
  let answer, r =
    Span.with_ spans "frontier" (fun () ->
        Cpsrisk.Pipeline.mitigate_frontier f (pipeline_request request))
  in
  let module F = Mitigation.Frontier in
  c.evals <- c.evals + r.F.r_evals;
  c.hits <- c.hits + r.F.r_hits + r.F.r_disk_hits;
  c.fresh <- c.fresh + r.F.r_fresh;
  c.pruned <- c.pruned + r.F.r_pruned;
  c.busy <- c.busy +. r.F.r_sum_s;
  c.capacity <- c.capacity +. (r.F.r_wall_s *. float_of_int (Engine.Pool.default_jobs ()));
  answer_of answer = expected

let replay_pipeline spans _ =
  no_raise (fun () ->
      Span.with_ spans "pipeline" (fun () ->
          Cpsrisk.Pipeline.run (Cpsrisk.Pipeline.water_tank_config ~semantic_lint:true ())))

(* ------------------------------------------------------------------ *)
(* The script                                                          *)
(* ------------------------------------------------------------------ *)

let refine_levels = Cpsrisk.Hierarchy.default_levels
let refine_entries = Cpsrisk.Hierarchy.default_entries

(* Write the generated inputs into the run directory and build the
   script; the mitigation oracle runs here, once. The seed drives the
   plant and the ASP programs; the mitigation entries search the two
   built-in catalogs at fixed budgets. *)
let script (ctx : Run.ctx) =
  let seed = ctx.Run.seed in
  let file name src =
    let p = Run.path ctx name in
    Run.write_file p src;
    p
  in
  let plant_src = Gen.model_text (Gen.plant ~seed) in
  let plant = file "plant.model" plant_src in
  let pigeon_src = Gen.pigeon_program ~seed in
  let pigeon = file "pigeon.lp" pigeon_src in
  let cycle_src, cycle_count = Gen.cycle_program ~seed in
  let cycle = file "cycle.lp" cycle_src in
  let tree_src, tree_count = Gen.tree_program ~seed in
  let tree = file "tree.lp" tree_src in
  let mitigate case name requests =
    let f = frontier case in
    List.map
      (fun (label, request) ->
        let expected = Oracle.mitigation f request in
        let flags =
          match request with
          | `Optimal b -> [ "--budget"; string_of_int b ]
          | `Pareto -> [ "--pareto" ]
          | `Budgets bs -> [ "--budgets"; String.concat "," (List.map string_of_int bs) ]
        in
        {
          label = Printf.sprintf "mitigate-%s-%s" name label;
          args = [ "mitigate"; "--frontier"; "--case"; name; "--json" ] @ flags;
          expect = Answer expected;
          replay = replay_mitigate case request expected;
        })
      requests
  in
  let solve label path src expect =
    { label; args = [ "solve"; path ]; expect; replay = replay_solve src expect }
  in
  let confirmed = Oracle.refine_confirmed ~levels:refine_levels ~entries:refine_entries in
  [
    { label = "pipeline"; args = [ "pipeline"; "--semantic-lint" ]; expect = Exit 0; replay = replay_pipeline };
    { label = "model"; args = [ "model"; plant ]; expect = Exit 0; replay = replay_model plant_src };
    { label = "lint-model"; args = [ "lint"; plant ]; expect = Exit 0; replay = replay_lint_model plant_src };
    { label = "lint-pigeon"; args = [ "lint"; "--semantic"; pigeon ]; expect = Exit 0; replay = replay_lint_program pigeon_src };
    { label = "lint-cycle"; args = [ "lint"; "--semantic"; cycle ]; expect = Exit 0; replay = replay_lint_program cycle_src };
    { label = "analyze-tree"; args = [ "analyze"; tree ]; expect = Exit 0; replay = replay_analyze tree_src };
    { label = "analyze-pigeon"; args = [ "analyze"; pigeon ]; expect = Exit 0; replay = replay_analyze pigeon_src };
    solve "solve-pigeon" pigeon pigeon_src Unsat;
    solve "solve-cycle" cycle cycle_src (Models cycle_count);
    solve "solve-tree" tree tree_src (Models tree_count);
    { label = "refine"; args = [ "refine"; "--json" ]; expect = Confirmed confirmed; replay = replay_refine confirmed };
  ]
  @ mitigate `Hierarchy "hierarchy"
      [ ("optimal", `Optimal 12); ("pareto", `Pareto); ("budgets", `Budgets [ 8; 11; 14 ]) ]
  @ mitigate `Water_tank "water-tank"
      [ ("optimal", `Optimal 3); ("pareto", `Pareto); ("budgets", `Budgets [ 1; 2; 4 ]) ]

(* ------------------------------------------------------------------ *)
(* Checks on a one-shot's exit status and output                       *)
(* ------------------------------------------------------------------ *)

let has_line l out = List.mem l (String.split_on_char '\n' out)

let check first entry (e : Proc.exit) out =
  match entry.expect with
  | Exit code -> (
      e.Proc.code = code
      &&
      match Hashtbl.find_opt first entry.label with
      | Some o -> o = out
      | None ->
          Hashtbl.replace first entry.label out;
          true)
  | Unsat -> e.Proc.code = 1 && has_line "UNSATISFIABLE" out
  | Models n -> e.Proc.code = 0 && has_line (Printf.sprintf "SATISFIABLE (%d models)" n) out
  | Confirmed ids ->
      e.Proc.code = 0
      && (match J.parse out with
         | Ok j -> (
             match J.mem_list "confirmed" j with
             | Some l -> List.filter_map J.string_opt l = ids
             | None -> false)
         | Error _ -> false)
  | Answer a ->
      e.Proc.code = 0
      && (match J.parse out with Ok j -> Oracle.mitigation_of_json j = Some a | Error _ -> false)

type shot = {
  label : string;
  at : float;  (** exit time on the timed phase's clock *)
  wall : float;
  cpu : float;
  rss_kb : int;
  ok : bool;
}

let shot (ctx : Run.ctx) ~clock first entry =
  let e, wall, out = Proc.run ~out:(Run.path ctx "out.txt") ctx.Run.cli entry.args in
  {
    label = entry.label;
    at = clock ();
    wall;
    cpu = e.Proc.cpu_s;
    rss_kb = e.Proc.maxrss_kb;
    ok = check first entry e out;
  }

(* Median wall per script entry, in script order: where a cycle's time
   goes, printed with the summary. *)
let by_entry entries shots =
  List.map
    (fun (e : entry) ->
      ( e.label,
        J.Float
          (Run.ms
             (Stats.median
                (List.filter_map (fun (s : shot) -> if s.label = e.label then Some s.wall else None) shots)))
      ))
    entries

(* ------------------------------------------------------------------ *)
(* End-to-end and traced runs                                          *)
(* ------------------------------------------------------------------ *)

let version_wall (ctx : Run.ctx) =
  let e, wall, out = Proc.run ~out:(Run.path ctx "version.txt") ctx.Run.cli [ "--version" ] in
  if e.Proc.code <> 0 || String.trim out = "" then failwith "cpsrisk --version failed";
  wall

(* A [cpsrisk --version] start-up follows every invocation of the script,
   and setup_s is their median: over a hundred start-ups spread through
   the whole run, so that a few slow seconds of the host move it little.
   The timed phase's clock stops while a start-up runs. *)
let e2e (ctx : Run.ctx) =
  let entries = script ctx in
  let first = Hashtbl.create 16 in
  let t0 = Proc.now () and paused = ref 0.0 and startups = ref [] in
  let clock () = Proc.now () -. t0 -. !paused in
  let shot_then_startup acc entry =
    let s = shot ctx ~clock first entry in
    let t = Proc.now () in
    startups := version_wall ctx :: !startups;
    paused := !paused +. (Proc.now () -. t);
    s :: acc
  in
  let rec cycles acc =
    let acc = List.fold_left shot_then_startup acc entries in
    let elapsed = clock () in
    if (elapsed >= ctx.Run.seconds && List.length acc >= min_samples)
       || Proc.now () -. t0 > max_seconds
    then List.rev acc
    else cycles acc
  in
  let shots = cycles [] in
  let n = List.length shots in
  {
    Run.attempted = n;
    failed = List.length (List.filter (fun s -> not s.ok) shots);
    metrics =
      [
        ("setup_s", Stats.median !startups);
        ("peak_rss_mb", Run.mib (List.fold_left (fun m s -> max m s.rss_kb) 0 shots));
        ("cpu_ms_per_req", Run.ms (List.fold_left (fun a s -> a +. s.cpu) 0.0 shots) /. float_of_int n);
      ]
      @ Stats.timed_metrics (List.map (fun s -> (s.at, s.wall)) shots);
    notes =
      [
        ("samples", J.Int n);
        ("cycles", J.Int (n / List.length entries));
        ("entry_median_ms", J.Obj (by_entry entries shots));
      ];
  }

let traced (ctx : Run.ctx) =
  let entries = script ctx in
  let first = Hashtbl.create 16 in
  let t0 = Proc.now () in
  let shots = List.map (shot ctx ~clock:(fun () -> Proc.now () -. t0) first) entries in
  let oneshot_wall = List.fold_left (fun a s -> a +. s.wall) 0.0 shots in
  let pass ~enabled =
    let spans = Span.create ~enabled in
    let c = counts () in
    let g0 = Gc.quick_stat () in
    let t0 = Proc.now () in
    let oks =
      Span.with_ spans "replay" (fun () ->
          List.map (fun e -> Span.with_ spans "request" (fun () -> e.replay spans c)) entries)
    in
    let w = Proc.now () -. t0 in
    let g1 = Gc.quick_stat () in
    (spans, c, w, Run.gc_metrics g0 g1 (List.length entries), List.filter not oks)
  in
  (* untraced passes on both sides of the traced one, so that warm-up
     does not bias the tracing overhead *)
  let _, _, w_a, gc, bad_a = pass ~enabled:false in
  let spans, c, w_traced, _, bad_b = pass ~enabled:true in
  let _, _, w_c, _, bad_c = pass ~enabled:false in
  let w_plain = (w_a +. w_c) /. 2.0 in
  let mean_ms name = let n, t = Span.total spans name in Run.ms (Run.ratio t (float_of_int n)) in
  let root = List.hd (Span.roots spans) in
  let g = c.ground and s = c.solver in
  let n = List.length entries in
  let metrics =
    [
      ("proc.startup_ms", Run.ms (oneshot_wall -. w_plain) /. float_of_int n);
      ("parser.ms", mean_ms "parser");
      ("grounder.prepare_ms", mean_ms "grounder.prepare");
      ("grounder.ground_ms", mean_ms "grounder.ground");
      ("grounder.fresh_rules", float_of_int g.Asp.Grounder.Stats.fresh_rules);
      ("grounder.reused_rules", float_of_int g.Asp.Grounder.Stats.reused_rules);
      ("grounder.probes", float_of_int g.Asp.Grounder.Stats.probes);
      ("grounder.probes_per_firing", Run.iratio g.Asp.Grounder.Stats.probes g.Asp.Grounder.Stats.firings);
      ("solver.solve_ms", mean_ms "solver.solve");
      ("solver.guesses", float_of_int s.Asp.Solver.Stats.guesses);
      ("solver.conflicts", float_of_int s.Asp.Solver.Stats.conflicts);
      ("solver.learned", float_of_int s.Asp.Solver.Stats.learned);
      ("solver.restarts", float_of_int s.Asp.Solver.Stats.restarts);
      ("solver.unfounded_checks", float_of_int s.Asp.Solver.Stats.unfounded_checks);
      ("solver.cheap_share", Run.iratio c.cheap c.solves);
      ("frontier.ms", mean_ms "frontier");
      ("frontier.evals", float_of_int c.evals);
      ("frontier.fresh", float_of_int c.fresh);
      ("frontier.pruned", float_of_int c.pruned);
      ("frontier.hit_ratio", Run.iratio c.hits c.evals);
      ("pool.busy_share", Run.ratio c.busy c.capacity);
      ("cegar.ms", mean_ms "cegar");
      ("cegar.solves", float_of_int c.cegar_solves);
      ("cegar.nogoods_carried", float_of_int c.carried);
      ("lint.ms", mean_ms "lint");
      ("analysis.ms", mean_ms "analysis");
      ("archimate.parse_ms", mean_ms "archimate.parse");
      ("pipeline.ms", mean_ms "pipeline");
      ( "trace.unattributed_share",
        Run.ratio (Span.uncovered spans [ "replay"; "request" ]) (Span.duration root) );
      ("trace.overhead_share", (w_traced -. w_plain) /. w_plain);
    ]
    @ gc
  in
  {
    Run.attempted = 4 * n;
    failed =
      List.length (List.filter (fun s -> not s.ok) shots)
      + List.length bad_a + List.length bad_b + List.length bad_c;
    metrics;
    notes =
      [
        ("script_entries", J.Int n);
        ("replay_wall_s", J.Float w_plain);
        ("traced_wall_s", J.Float w_traced);
        ("oneshot_wall_s", J.Float oneshot_wall);
      ];
  }

(* Key-shape golden tests of every `--json` producer of the CLI: run the
   real binary, parse its output and pin the sorted set of key paths with
   the values masked. A renamed, dropped or re-nested key fails here even
   when the values still parse. Paths are dot-joined object keys, with
   "[]" for the elements of an array. *)

let cli = "../bin/cpsrisk_cli.exe"

let run args =
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: args)) in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  out

let rec key_paths prefix j acc =
  let acc = if prefix = "" then acc else prefix :: acc in
  match j with
  | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          key_paths (if prefix = "" then k else prefix ^ "." ^ k) v acc)
        acc fields
  | Json.List xs ->
      List.fold_left (fun acc v -> key_paths (prefix ^ "[]") v acc) acc xs
  | _ -> acc

let shape args expected () =
  let out = run args in
  match Json.parse out with
  | Error e -> Alcotest.fail (Printf.sprintf "invalid JSON (%s): %s" e out)
  | Ok j ->
      Alcotest.check
        Alcotest.(list string)
        (String.concat " " args)
        (List.sort String.compare expected)
        (List.sort_uniq String.compare (key_paths "" j []))

let sweep_keys =
  [
    "base_atoms"; "cache"; "cache.disk_hits"; "cache.hit_rate"; "cache.hits";
    "cache.misses"; "deltas"; "fresh"; "fresh.backjumped"; "fresh.conflicts";
    "fresh.firings"; "fresh.guesses"; "fresh.learned"; "fresh.leaves";
    "fresh.models"; "fresh.pruned"; "fresh.restarts"; "fresh.unfounded_checks";
    "fresh.unfounded_sets"; "fresh.wall_s"; "ground"; "ground.firings";
    "ground.fresh_rules"; "ground.passes"; "ground.probes";
    "ground.reused_rules"; "ground.wall_s"; "jobs"; "results"; "results[]";
    "results[].cached"; "results[].fingerprint"; "results[].label";
    "results[].models"; "results[].source"; "wall_s";
  ]

let report_keys =
  [
    "report"; "report.critical_s"; "report.disk_hits"; "report.evals";
    "report.fresh"; "report.hits"; "report.pruned"; "report.sum_s";
    "report.wall_s";
  ]

let solution_keys prefix =
  List.map (fun k -> prefix ^ k) [ ""; ".cost"; ".residual"; ".selected"; ".selected[]" ]

let diagnostic_keys =
  [ "[]"; "[].code"; "[].col"; "[].line"; "[].message"; "[].severity"; "[].subject" ]

let cases =
  [
    ("sweep, water-tank backend", [ "sweep"; "--json" ], sweep_keys);
    ( "sweep, topology backend",
      [ "sweep"; "--json"; "--model"; "../examples/models/press_cell.model" ],
      sweep_keys );
    ( "refine",
      [ "refine"; "--json" ],
      [
        "confirmed"; "confirmed[]"; "rounds"; "rounds[]"; "rounds[].eliminated";
        "rounds[].eliminated[]"; "rounds[].label"; "rounds[].level";
        "rounds[].survivors"; "rounds[].survivors[]"; "stats";
        "stats.disk_hits"; "stats.fresh"; "stats.ground";
        "stats.ground.fresh_rules"; "stats.ground.reused_rules";
        "stats.ground.wall_s"; "stats.hits"; "stats.rounds"; "stats.solves";
        "stats.wall_s";
      ] );
    ( "mitigate --frontier, optimal",
      [ "mitigate"; "--frontier"; "--json" ],
      solution_keys "optimal" @ report_keys );
    ( "mitigate --frontier --pareto",
      [ "mitigate"; "--frontier"; "--pareto"; "--json" ],
      ("pareto" :: solution_keys "pareto[]") @ report_keys );
    ( "mitigate --frontier --budgets",
      [ "mitigate"; "--frontier"; "--budgets"; "3,9"; "--json" ],
      [ "sweep"; "sweep[]"; "sweep[].budget" ]
      @ solution_keys "sweep[].solution" @ report_keys );
    ("lint", [ "lint"; "--json"; "fixtures/lint_error.lp" ], diagnostic_keys);
    ( "analyze",
      [
        "analyze"; "--json"; "--blowup-threshold"; "4";
        "fixtures/analyze_findings.lp";
      ],
      diagnostic_keys );
  ]

let suites =
  [
    ( "json.shape",
      List.map
        (fun (name, args, expected) ->
          Alcotest.test_case name `Quick (shape args expected))
        cases );
  ]

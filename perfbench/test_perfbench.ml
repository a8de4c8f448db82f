(* Tests of the benchmark's own machinery: input determinism, the
   percentile-support rule, the reachability oracle and span
   arithmetic. *)

open Perfbench

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Everything the program is fed for one seed, as one string. *)
let inputs seed =
  let p = Gen.plant ~seed in
  let plant_u = Array.of_list (Gen.plant_universe ~seed p) in
  let tank_u = Array.of_list Gen.tank_universe in
  let lines ds = String.concat "\n" (List.map Gen.delta_line ds) in
  String.concat "\n--\n"
    ([ Gen.model_text p; Gen.pigeon_program ~seed; fst (Gen.cycle_program ~seed); fst (Gen.tree_program ~seed) ]
    @ List.init 50 (fun k -> lines (Gen.fresh_request ~seed p k))
    @ List.init 50 (fun k -> lines (snd (Gen.warm_request ~seed ~plant_u ~tank_u k))))

let test_deterministic () =
  List.iter
    (fun seed -> Alcotest.(check string) "same seed, same bytes" (inputs seed) (inputs seed))
    [ 0; 1; 42 ];
  Alcotest.(check bool) "another seed, other inputs" false (inputs 1 = inputs 2)

let test_fresh_rarely_repeats () =
  let p = Gen.plant ~seed:3 in
  let ds = List.concat (List.init 200 (Gen.fresh_request ~seed:3 p)) in
  let distinct = List.length (List.sort_uniq compare ds) in
  Alcotest.(check bool) "at most 1% repeats" true (distinct * 100 >= 99 * List.length ds)

let test_warm_repeats () =
  let p = Gen.plant ~seed:3 in
  let plant_u = Array.of_list (Gen.plant_universe ~seed:3 p) in
  let tank_u = Array.of_list Gen.tank_universe in
  let ds =
    List.concat_map (fun k -> snd (Gen.warm_request ~seed:3 ~plant_u ~tank_u k)) (List.init 500 Fun.id)
  in
  let universe = Array.to_list plant_u @ Array.to_list tank_u in
  Alcotest.(check bool) "drawn from the universe" true (List.for_all (fun d -> List.mem d universe) ds);
  Alcotest.(check bool) "with repeats" true
    (List.length (List.sort_uniq compare ds) < List.length ds / 2)

(* The plant is sized to the regime DESIGN.md gives for the paper's case
   study, 10^2 to 10^4 ground atoms: its warm base grounds to about 1500,
   where the water tank at horizon 12 grounds to about 200. *)
let test_plant_size () =
  List.iter
    (fun seed ->
      let model = Archimate.Text.parse (Gen.model_text (Gen.plant ~seed)) in
      let atoms = Engine.Job.base_atoms (Engine.Job.prepare (Cpsrisk.Sweeps.topology_spec model [])) in
      Alcotest.(check bool) (Printf.sprintf "seed %d: %d ground atoms" seed atoms) true
        (atoms >= 100 && atoms <= 10_000))
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let test_support_rule () =
  let check name expected per_mille n =
    Alcotest.(check bool) name expected (Stats.supported ~per_mille n)
  in
  check "p50 at 19" false 500 19;
  check "p50 at 20" true 500 20;
  check "p90 at 99" false 900 99;
  check "p90 at 100" true 900 100;
  check "p99 at 999" false 990 999;
  check "p99 at 1000" true 990 1000;
  check "nothing at 0" false 500 0

let test_nearest_rank () =
  let a = Stats.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Stats.percentile ~per_mille:500 a);
  Alcotest.(check (float 0.0)) "p90" 90.0 (Stats.percentile ~per_mille:900 a);
  Alcotest.(check (float 0.0)) "median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ])

let test_timed_metrics () =
  (* 60 samples: one window, p50 reported, p90 not *)
  let few = List.init 60 (fun i -> (float_of_int (i + 1) *. 0.01, 0.002)) in
  let names m = List.map fst m in
  Alcotest.(check (list string)) "sparse run" [ "throughput_rps"; "latency_p50_ms" ]
    (names (Stats.timed_metrics few));
  (* 1200 samples at 100/s with a stalled stretch: ten windows of 120,
     too few for a p99 each; the windowed medians ignore the stall that
     a pooled figure would absorb *)
  let t = ref 0.0 in
  let many =
    List.init 1200 (fun i ->
        let lat = if i >= 600 && i < 700 then 0.1 else 0.01 in
        t := !t +. lat;
        (!t, lat))
  in
  let m = Stats.timed_metrics many in
  Alcotest.(check (list string)) "dense run"
    [ "throughput_rps"; "latency_p50_ms"; "latency_p90_ms" ]
    (names m);
  Alcotest.(check (float 1e-6)) "throughput" 100.0 (List.assoc "throughput_rps" m);
  Alcotest.(check (float 1e-9)) "p90" 10.0 (List.assoc "latency_p90_ms" m)

(* ------------------------------------------------------------------ *)
(* Reachability oracle against the engine                              *)
(* ------------------------------------------------------------------ *)

let test_oracle_matches_engine () =
  let seed = 7 in
  let p = Gen.plant ~seed in
  let ds = List.concat (List.init 10 (Gen.fresh_request ~seed p)) in
  let deltas =
    List.map (fun (d : Gen.delta) -> Engine.Delta.make ~mitigations:d.Gen.mitigations d.Gen.faults) ds
  in
  let model = Archimate.Text.parse (Gen.model_text p) in
  let report = Engine.Sweep.run ~jobs:1 (Cpsrisk.Sweeps.topology_spec model deltas) in
  let engine = Array.to_list (Array.map Cpsrisk.Sweeps.affected report.Engine.Sweep.results) in
  let oracle = List.map (Oracle.affected p) ds in
  Alcotest.(check (list (list string))) "affected lists" oracle engine;
  (* propagation reaches part of the plant, not all of it *)
  let n = Array.length p.Gen.ids in
  Alcotest.(check bool) "some injection spreads" true
    (List.exists2 (fun (d : Gen.delta) a -> List.length a > List.length d.Gen.faults) ds oracle);
  Alcotest.(check bool) "none reaches everything" true (List.for_all (fun a -> List.length a < n / 2) oracle)

let test_oracle_shields () =
  let p = Gen.plant ~seed:7 in
  let m, covered = p.Gen.shields.(0) in
  let c = p.Gen.ids.(List.hd covered) in
  let open Gen in
  Alcotest.(check (list string)) "a shielded injection is contained" []
    (Oracle.affected p { faults = [ c ]; mitigations = [ m ] });
  Alcotest.(check bool) "an unshielded one errs" true
    (List.mem c (Oracle.affected p { faults = [ c ]; mitigations = [] }))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let spin seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do () done

let rec each f (s : Span.span) =
  f s;
  List.iter (each f) s.Span.children

let test_span_arithmetic () =
  let t = Span.create ~enabled:true in
  Span.with_ t "root" (fun () ->
      spin 0.002;
      Span.with_ t "a" (fun () ->
          spin 0.001;
          Span.with_ t "b" (fun () -> spin 0.001));
      Span.with_ t "c" (fun () ->
          spin 0.001;
          (* a layer claiming more time than its caller spent *)
          Span.reported t "d" 10.0;
          Span.reported t "e" 10.0));
  let root = List.hd (Span.roots t) in
  each
    (fun s ->
      let covered = List.fold_left (fun acc c -> acc +. Span.duration c) 0.0 s.Span.children in
      List.iter
        (fun c ->
          Alcotest.(check bool) (c.Span.name ^ " within " ^ s.Span.name) true
            (Span.duration c <= Span.duration s))
        s.Span.children;
      Alcotest.(check bool) (s.Span.name ^ " children fit") true (covered <= Span.duration s +. 1e-9);
      Alcotest.(check (float 1e-12)) (s.Span.name ^ " self") (Span.duration s -. covered) (Span.self s))
    root;
  let names = List.map (fun (n, _, _, _) -> n) (Span.totals t) in
  Alcotest.(check (list string)) "every span counted" [ "a"; "b"; "c"; "d"; "e"; "root" ] names;
  Alcotest.(check bool) "root has uncovered time" true (Span.self root > 0.0);
  Alcotest.(check (float 1e-12)) "uncovered = self of the named spans"
    (Span.self root +. Span.self (List.hd (List.rev root.Span.children)))
    (Span.uncovered t [ "root"; "a" ])

let test_span_disabled () =
  let t = Span.create ~enabled:false in
  Alcotest.(check int) "value passes through" 3 (Span.with_ t "x" (fun () -> 3));
  Span.reported t "y" 1.0;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.roots t))

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_deterministic;
          Alcotest.test_case "fresh stream rarely repeats" `Quick test_fresh_rarely_repeats;
          Alcotest.test_case "warm stream repeats a universe" `Quick test_warm_repeats;
          Alcotest.test_case "plant in the case-study regime" `Quick test_plant_size;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "support rule" `Quick test_support_rule;
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "windowed medians" `Quick test_timed_metrics;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "reachability equals one engine sweep" `Quick test_oracle_matches_engine;
          Alcotest.test_case "shields contain" `Quick test_oracle_shields;
        ] );
      ( "spans",
        [
          Alcotest.test_case "children within parents, self time" `Quick test_span_arithmetic;
          Alcotest.test_case "disabled tracing records nothing" `Quick test_span_disabled;
        ] );
    ]

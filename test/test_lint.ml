(* Tests for the lint layer: one firing (positive) and one silent
   (negative) case per diagnostic code, the diagnostics framework itself,
   and the regression that the shipped artifacts lint clean. *)

let check = Alcotest.check
module D = Lint.Diagnostic

let with_code code ds = List.filter (fun (d : D.t) -> d.D.code = code) ds
let fires code ds = with_code code ds <> []

let check_fires ?(neg = false) code ds =
  check Alcotest.bool
    (Printf.sprintf "%s %s" code (if neg then "silent" else "fires"))
    (not neg) (fires code ds)

let severity_of code ds =
  match with_code code ds with
  | d :: _ -> Some d.D.severity
  | [] -> None

(* -------------------------------------------------------------------- *)
(* Diagnostics framework                                                 *)
(* -------------------------------------------------------------------- *)

let test_diag_to_string () =
  let d =
    D.error ~code:"L001" ~pos:{ D.line = 3; col = 5 } ~subject:"p/1" "boom"
  in
  check Alcotest.string "rendering" "line 3, col 5: error[L001] p/1: boom"
    (D.to_string d);
  let line_only = D.warning ~code:"L109" ~pos:{ D.line = 7; col = 0 } "dup" in
  check Alcotest.string "line-only rendering" "line 7: warning[L109] dup"
    (D.to_string line_only)

let test_diag_sort_and_summary () =
  let w = D.warning ~code:"L002" "w" in
  let e = D.error ~code:"L001" ~pos:{ D.line = 9; col = 1 } "e" in
  let i = D.info ~code:"L004" "i" in
  let sorted = D.sort [ w; i; e ] in
  check Alcotest.(list string) "errors first"
    [ "L001"; "L002"; "L004" ]
    (List.map (fun (d : D.t) -> d.D.code) sorted);
  check Alcotest.string "summary" "1 error, 1 warning, 1 info"
    (D.summary [ w; i; e ]);
  check Alcotest.string "clean summary" "clean" (D.summary []);
  check Alcotest.bool "errors detected" true (D.has_errors [ w; e ]);
  check Alcotest.bool "infos are clean" true (D.is_clean [ i ]);
  check Alcotest.bool "warnings are dirty" false (D.is_clean [ w ])

let test_diag_json () =
  let d =
    D.error ~code:"L000" ~pos:{ D.line = 2; col = 7 } "bad \"quote\"\nnewline"
  in
  check Alcotest.string "escaped json"
    {|{"code":"L000","severity":"error","line":2,"col":7,"message":"bad \"quote\"\nnewline"}|}
    (Json.to_string (D.to_json d));
  let unlocated = D.info ~code:"L004" ~subject:"p/1" "unused" in
  check Alcotest.string "optional fields omitted"
    {|{"code":"L004","severity":"info","subject":"p/1","message":"unused"}|}
    (Json.to_string (D.to_json unlocated))

(* -------------------------------------------------------------------- *)
(* ASP program checks (L000–L008)                                        *)
(* -------------------------------------------------------------------- *)

let clean_src = "dom(1..3). p(X) :- dom(X). q :- p(X). #show q/0."

let test_l000_parse_error () =
  let ds = Lint.run_source "p(X :- q(X)." in
  check_fires "L000" ds;
  (match ds with
  | [ d ] ->
      check Alcotest.bool "located" true (d.D.pos <> None);
      check Alcotest.bool "error severity" true (d.D.severity = D.Error)
  | _ -> Alcotest.fail "expected exactly one diagnostic");
  check_fires ~neg:true "L000" (Lint.run_source clean_src)

let test_l001_unsafe () =
  let ds = Lint.run_source "p(X, Y) :- q(X).\nq(1)." in
  check_fires "L001" ds;
  (match with_code "L001" ds with
  | [ d ] ->
      check Alcotest.bool "names the variable" true
        (String.length d.D.message > 0
        && String.index_opt d.D.message 'Y' <> None);
      check
        Alcotest.(option (pair int int))
        "position" (Some (1, 1))
        (Option.map (fun p -> (p.D.line, p.D.col)) d.D.pos)
  | _ -> Alcotest.fail "expected one L001");
  (* every offending rule is reported, not just the first *)
  let two = Lint.run_source "p(Y) :- q.\nr(Z) :- q.\nq." in
  check Alcotest.int "all unsafe rules reported" 2
    (List.length (with_code "L001" two));
  check_fires ~neg:true "L001" (Lint.run_source clean_src)

let test_l002_stratification () =
  let ds =
    Lint.run_source
      "dom(1). p(X) :- dom(X), not q(X). q(X) :- dom(X), not p(X)."
  in
  check_fires "L002" ds;
  check_fires ~neg:true "L002"
    (Lint.run_source "dom(1). p(X) :- dom(X), not q(X). q(1).")

let test_l003_undefined () =
  let ds = Lint.run_source "dom(1). r(X) :- dom(X), ghost(X)." in
  check_fires "L003" ds;
  (match with_code "L003" ds with
  | [ d ] -> check Alcotest.(option string) "subject" (Some "ghost/1") d.D.subject
  | _ -> Alcotest.fail "expected one L003");
  check_fires ~neg:true "L003" (Lint.run_source clean_src)

let test_l004_unused () =
  let ds = Lint.run_source "dom(1). p(X) :- dom(X)." in
  check_fires "L004" ds;
  check Alcotest.(option string) "info severity"
    (Some "info")
    (Option.map D.severity_to_string (severity_of "L004" ds));
  (* #show consumes the predicate *)
  check_fires ~neg:true "L004"
    (Lint.run_source "dom(1). p(X) :- dom(X). #show p/1. #show dom/1.")

let test_l005_arities () =
  let ds = Lint.run_source "s(1). s(1,2). q :- s(X), s(X,Y)." in
  check_fires "L005" ds;
  check_fires ~neg:true "L005" (Lint.run_source clean_src)

let test_l006_singleton () =
  let ds = Lint.run_source "edge(1,2). reach(X) :- edge(X, Y)." in
  check_fires "L006" ds;
  check Alcotest.(option string) "info severity"
    (Some "info")
    (Option.map D.severity_to_string (severity_of "L006" ds));
  (* underscore-prefixed variables are deliberate projections *)
  check_fires ~neg:true "L006"
    (Lint.run_source "edge(1,2). reach(X) :- edge(X, _Y).")

let test_l007_dead_rule () =
  let ds = Lint.run_source "a :- b. b :- c." in
  (* both rules are transitively dead: c has no derivation at all *)
  check Alcotest.int "transitively dead" 2 (List.length (with_code "L007" ds));
  check_fires ~neg:true "L007" (Lint.run_source "a :- b. b :- c. c.")

let test_l008_function_recursion () =
  let ds = Lint.run_source "count(0). count(N+1) :- count(N)." in
  check_fires "L008" ds;
  (* non-recursive function-symbol heads are fine *)
  check_fires ~neg:true "L008" (Lint.run_source "dom(1). p(f(X)) :- dom(X).")

let test_l010_tightness () =
  (* mutual positive recursion *)
  let ds = Lint.run_source "{ c }. p :- q. q :- p. p :- c." in
  check_fires "L010" ds;
  check Alcotest.(option string) "info severity"
    (Some "info")
    (Option.map D.severity_to_string (severity_of "L010" ds));
  (match with_code "L010" ds with
  | [ d ] ->
      (* the warning names the cycle *)
      check Alcotest.bool "cycle annotated" true
        (String.index_opt d.D.message 'p' <> None
        && String.length d.D.message > 0);
      check Alcotest.bool "mentions both predicates" true
        (let has s sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         has d.D.message "p/0" && has d.D.message "q/0")
  | _ -> Alcotest.fail "expected one L010");
  (* self-recursion is a one-element positive cycle *)
  check_fires "L010" (Lint.run_source "r :- r.");
  (* variable-level recursion (transitive closure) is predicate-level
     recursion too *)
  check_fires "L010"
    (Lint.run_source
       "edge(1,2). reach(X,Y) :- edge(X,Y). reach(X,Y) :- reach(X,Z), \
        edge(Z,Y).");
  (* a cycle through negation is L002's finding, not L010's *)
  let neg_cycle = Lint.run_source "a :- not b. b :- not a." in
  check_fires "L002" neg_cycle;
  check_fires ~neg:true "L010" neg_cycle;
  (* acyclic programs are tight *)
  check_fires ~neg:true "L010" (Lint.run_source "a :- b. b :- c. c.")

(* -------------------------------------------------------------------- *)
(* L009: requirement coverage                                            *)
(* -------------------------------------------------------------------- *)

let test_l009_coverage () =
  let req =
    ("R1", Ltl.Formula.Eventually (Ltl.Formula.Atom "level=overflow"))
  in
  let covered =
    Asp.Parser.parse_program "time(0). holds(level, overflow, 0)."
  in
  let uncovered = Asp.Parser.parse_program "time(0). holds(level, low, 0)." in
  check_fires "L009" (Lint.run_requirements ~program:uncovered [ req ]);
  (match Lint.run_requirements ~program:uncovered [ req ] with
  | [ d ] -> check Alcotest.(option string) "subject" (Some "R1") d.D.subject
  | _ -> Alcotest.fail "expected one L009");
  check_fires ~neg:true "L009" (Lint.run_requirements ~program:covered [ req ]);
  (* a variable head argument can produce any instance *)
  let generic =
    Asp.Parser.parse_program "time(0). holds(level, V, 0) :- value(V). value(overflow)."
  in
  check_fires ~neg:true "L009" (Lint.run_requirements ~program:generic [ req ])

(* -------------------------------------------------------------------- *)
(* Model checks (L101–L110)                                              *)
(* -------------------------------------------------------------------- *)

let model_src body = "model \"M\"\n" ^ body

let clean_model_src =
  model_src
    "element a \"Plant\" equipment\n\
     element b \"Sensor\" device\n\
     relation r1 association a -> b\n"

let test_l101_composition_cycle () =
  let ds =
    Lint.run_model_source
      (model_src
         "element a \"A\" equipment\n\
          element b \"B\" equipment\n\
          relation r1 composition a -> b\n\
          relation r2 composition b -> a\n")
  in
  check_fires "L101" ds;
  check_fires ~neg:true "L101" (Lint.run_model_source clean_model_src)

let test_l102_multiple_parents () =
  let ds =
    Lint.run_model_source
      (model_src
         "element p1 \"P1\" equipment\n\
          element p2 \"P2\" equipment\n\
          element c \"C\" device\n\
          relation r1 composition p1 -> c\n\
          relation r2 composition p2 -> c\n")
  in
  check_fires "L102" ds;
  check_fires ~neg:true "L102" (Lint.run_model_source clean_model_src)

let test_l103_flow_motivation () =
  let ds =
    Lint.run_model_source
      (model_src
         "element a \"A\" equipment\n\
          element g \"G\" goal\n\
          relation r1 flow a -> g\n")
  in
  check_fires "L103" ds;
  check_fires ~neg:true "L103" (Lint.run_model_source clean_model_src)

let test_l104_empty_name () =
  let ds =
    Lint.run_model_source
      (model_src
         "element a \"\" equipment\n\
          element b \"B\" device\n\
          relation r1 association a -> b\n")
  in
  check_fires "L104" ds;
  check_fires ~neg:true "L104" (Lint.run_model_source clean_model_src)

let test_l105_duplicate_names () =
  let ds =
    Lint.run_model_source
      (model_src
         "element a \"Pump\" equipment\n\
          element b \"Pump\" device\n\
          relation r1 association a -> b\n")
  in
  check_fires "L105" ds;
  check_fires ~neg:true "L105" (Lint.run_model_source clean_model_src)

let test_l106_isolated () =
  let ds =
    Lint.run_model_source
      (model_src
         "element a \"A\" equipment\n\
          element b \"B\" device\n\
          element lone \"Lonely\" device\n\
          relation r1 association a -> b\n")
  in
  check_fires "L106" ds;
  check_fires ~neg:true "L106" (Lint.run_model_source clean_model_src)

let test_l107_self_loop () =
  let ds =
    Lint.run_model_source
      (model_src
         "element a \"A\" equipment\n\
          relation r1 association a -> a\n")
  in
  check_fires "L107" ds;
  check_fires ~neg:true "L107" (Lint.run_model_source clean_model_src)

let test_l108_dangling_endpoint () =
  let ds =
    Lint.run_model_source
      (model_src
         "element a \"A\" equipment\n\
          relation r1 association a -> nowhere\n")
  in
  check_fires "L108" ds;
  (match with_code "L108" ds with
  | [ d ] ->
      check
        Alcotest.(option (pair int int))
        "line-located" (Some (3, 0))
        (Option.map (fun p -> (p.D.line, p.D.col)) d.D.pos)
  | _ -> Alcotest.fail "expected one L108");
  check_fires ~neg:true "L108" (Lint.run_model_source clean_model_src)

let test_l109_duplicate_relationship () =
  let ds =
    Lint.run_model_source
      (model_src
         "element a \"A\" equipment\n\
          element b \"B\" device\n\
          relation r1 association a -> b\n\
          relation r1 serving b -> a\n")
  in
  check_fires "L109" ds;
  check Alcotest.(option string) "warning severity"
    (Some "warning")
    (Option.map D.severity_to_string (severity_of "L109" ds));
  check_fires ~neg:true "L109" (Lint.run_model_source clean_model_src)

let test_l110_duplicate_element () =
  let ds =
    Lint.run_model_source
      (model_src
         "element a \"A\" equipment\n\
          element a \"A again\" device\n")
  in
  check_fires "L110" ds;
  check_fires ~neg:true "L110" (Lint.run_model_source clean_model_src)

let test_model_l000 () =
  let ds = Lint.run_model_source "element a \"A\" device\n" in
  check_fires "L000" ds;
  check_fires ~neg:true "L000" (Lint.run_model_source clean_model_src)

(* -------------------------------------------------------------------- *)
(* Integration / regressions                                             *)
(* -------------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_shipped_models_lint_clean () =
  let dir = "../examples/models" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".model")
  in
  check Alcotest.bool "at least one shipped model" true (files <> []);
  List.iter
    (fun f ->
      let ds = Lint.run_model_source (read_file (Filename.concat dir f)) in
      check Alcotest.bool (f ^ " lints clean") true (D.is_clean ds))
    files

let test_water_tank_program_lints_clean () =
  let scenario = List.assoc "S5" Cpsrisk.Water_tank.paper_scenarios in
  let program = Cpsrisk.Water_tank.asp_program ~scenario () in
  let encode atom time_term =
    if atom = "alert" then Asp.Lit.Pos (Asp.Atom.make "alert" [ time_term ])
    else Telingo.Compile.default_encoding atom time_term
  in
  let requirements =
    List.map
      (fun (r : Epa.Requirement.t) ->
        (r.Epa.Requirement.id, r.Epa.Requirement.formula))
      Cpsrisk.Water_tank.requirements
  in
  let ds = Lint.run_program ~requirements ~encode program in
  check Alcotest.bool
    ("water_tank encoding lints clean, got: " ^ D.summary ds)
    true (D.is_clean ds)

let test_water_tank_joint_program_lints_clean () =
  let ds = Lint.run_program (Cpsrisk.Water_tank.asp_mitigation_program ()) in
  check Alcotest.bool
    ("joint mitigation program lints clean, got: " ^ D.summary ds)
    true (D.is_clean ds)

let test_water_tank_model_lints_clean () =
  let ds = Lint.run_model Cpsrisk.Water_tank.refined_model in
  check Alcotest.bool "refined model has no lint errors" false
    (D.has_errors ds)

let test_grounder_reports_all_unsafe_vars_with_pos () =
  (* the grounder's exception now carries position and every variable *)
  let program = Asp.Parser.parse_program "q.\np(X, Y) :- q." in
  match Asp.Grounder.ground program with
  | _ -> Alcotest.fail "expected Unsafe"
  | exception Asp.Grounder.Unsafe msg ->
      let contains needle =
        let nl = String.length needle and hl = String.length msg in
        let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "position in message" true (contains "line 2, col 1");
      check Alcotest.bool "first variable" true (contains "X");
      check Alcotest.bool "second variable" true (contains "Y")

(* The README's lint-code table must stay in sync with the registries the
   CLI prints for `cpsrisk lint --list-codes` ([Lint.codes] plus
   [Analysis.Semlint.codes]): same codes, same severities, same one-line
   descriptions, in both directions. Backticks are markdown-only. *)
let test_readme_code_table_in_sync () =
  let strip_backticks s = String.concat "" (String.split_on_char '`' s) in
  let is_code s =
    String.length s >= 2
    && s.[0] = 'L'
    && String.for_all
         (fun c -> c >= '0' && c <= '9')
         (String.sub s 1 (String.length s - 1))
  in
  let rows = ref [] in
  let ic = open_in "../README.md" in
  (try
     while true do
       match String.split_on_char '|' (input_line ic) with
       | [ ""; code; sev; desc; "" ] ->
           let code = String.trim (strip_backticks code) in
           if is_code code then
             rows :=
               (code, String.trim sev, String.trim (strip_backticks desc))
               :: !rows
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  let rows = List.rev !rows in
  let registry =
    List.map
      (fun (code, sev, desc) -> (code, D.severity_to_string sev, desc))
      (Lint.codes @ Analysis.Semlint.codes)
  in
  List.iter
    (fun (code, sev, desc) ->
      match List.find_opt (fun (c, _, _) -> c = code) rows with
      | None -> Alcotest.failf "%s registered but missing from the README" code
      | Some (_, rsev, rdesc) ->
          check Alcotest.string (code ^ " severity") sev rsev;
          check Alcotest.string (code ^ " description") desc rdesc)
    registry;
  List.iter
    (fun (code, _, _) ->
      if not (List.exists (fun (c, _, _) -> c = code) registry) then
        Alcotest.failf "%s in the README but not registered" code)
    rows;
  check Alcotest.int "one README row per registered code" (List.length registry)
    (List.length rows)

let test_requirement_atoms () =
  let r =
    Epa.Requirement.make ~id:"R" ~description:"d"
      ~formula:"G (level=overflow -> F alert)"
  in
  check
    Alcotest.(slist string String.compare)
    "atoms" [ "level=overflow"; "alert" ] (Epa.Requirement.atoms r)

let suites =
  [
    ( "lint.diagnostic",
      [
        Alcotest.test_case "to_string" `Quick test_diag_to_string;
        Alcotest.test_case "sort & summary" `Quick test_diag_sort_and_summary;
        Alcotest.test_case "json" `Quick test_diag_json;
      ] );
    ( "lint.program",
      [
        Alcotest.test_case "L000 parse error" `Quick test_l000_parse_error;
        Alcotest.test_case "L001 unsafe" `Quick test_l001_unsafe;
        Alcotest.test_case "L002 stratification" `Quick test_l002_stratification;
        Alcotest.test_case "L003 undefined" `Quick test_l003_undefined;
        Alcotest.test_case "L004 unused" `Quick test_l004_unused;
        Alcotest.test_case "L005 arities" `Quick test_l005_arities;
        Alcotest.test_case "L006 singleton" `Quick test_l006_singleton;
        Alcotest.test_case "L007 dead rule" `Quick test_l007_dead_rule;
        Alcotest.test_case "L008 function recursion" `Quick
          test_l008_function_recursion;
        Alcotest.test_case "L009 coverage" `Quick test_l009_coverage;
        Alcotest.test_case "L010 tightness" `Quick test_l010_tightness;
      ] );
    ( "lint.model",
      [
        Alcotest.test_case "L101 composition cycle" `Quick
          test_l101_composition_cycle;
        Alcotest.test_case "L102 multiple parents" `Quick
          test_l102_multiple_parents;
        Alcotest.test_case "L103 flow/motivation" `Quick
          test_l103_flow_motivation;
        Alcotest.test_case "L104 empty name" `Quick test_l104_empty_name;
        Alcotest.test_case "L105 duplicate names" `Quick
          test_l105_duplicate_names;
        Alcotest.test_case "L106 isolated" `Quick test_l106_isolated;
        Alcotest.test_case "L107 self-loop" `Quick test_l107_self_loop;
        Alcotest.test_case "L108 dangling endpoint" `Quick
          test_l108_dangling_endpoint;
        Alcotest.test_case "L109 duplicate relationship" `Quick
          test_l109_duplicate_relationship;
        Alcotest.test_case "L110 duplicate element" `Quick
          test_l110_duplicate_element;
        Alcotest.test_case "model parse error" `Quick test_model_l000;
      ] );
    ( "lint.regressions",
      [
        Alcotest.test_case "README code table in sync" `Quick
          test_readme_code_table_in_sync;
        Alcotest.test_case "shipped models clean" `Quick
          test_shipped_models_lint_clean;
        Alcotest.test_case "water-tank program clean" `Quick
          test_water_tank_program_lints_clean;
        Alcotest.test_case "joint program clean" `Slow
          test_water_tank_joint_program_lints_clean;
        Alcotest.test_case "water-tank model clean" `Quick
          test_water_tank_model_lints_clean;
        Alcotest.test_case "grounder unsafe message" `Quick
          test_grounder_reports_all_unsafe_vars_with_pos;
        Alcotest.test_case "requirement atoms" `Quick test_requirement_atoms;
      ] );
  ]

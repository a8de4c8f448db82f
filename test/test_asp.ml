(* Tests for the ASP engine (lib/asp): terms, parser, grounder, solver. *)

let check = Alcotest.check
let fail = Alcotest.fail

let term_testable = Alcotest.testable Asp.Term.pp Asp.Term.equal
let atom_testable = Alcotest.testable Asp.Atom.pp Asp.Atom.equal

let solve_str ?limit src =
  Asp.Solver.solve ?limit (Asp.Grounder.ground (Asp.Parser.parse_program src))

let solve_optimal_str src =
  Asp.Solver.solve_optimal (Asp.Grounder.ground (Asp.Parser.parse_program src))

let model_strings m =
  List.map Asp.Atom.to_string (Asp.Model.to_list m)

let models_as_strings models = List.map model_strings models

(* -------------------------------------------------------------------- *)
(* Term                                                                  *)
(* -------------------------------------------------------------------- *)

let test_term_eval () =
  let t = Asp.Parser.parse_term "1+2*3" in
  check term_testable "precedence" (Asp.Term.int 7) (Asp.Term.eval t);
  let t = Asp.Parser.parse_term "(1+2)*3" in
  check term_testable "parens" (Asp.Term.int 9) (Asp.Term.eval t);
  let t = Asp.Parser.parse_term "-4" in
  check term_testable "negative" (Asp.Term.int (-4)) (Asp.Term.eval t);
  check (Alcotest.option Alcotest.int) "eval_int" (Some 10)
    (Asp.Term.eval_int (Asp.Parser.parse_term "20/2"))

let test_term_eval_errors () =
  (match Asp.Term.eval (Asp.Parser.parse_term "1/0") with
  | exception Invalid_argument _ -> ()
  | _ -> fail "division by zero accepted");
  match Asp.Term.eval (Asp.Term.var "X") with
  | exception Invalid_argument _ -> ()
  | _ -> fail "non-ground eval accepted"

let test_term_substitute () =
  let t = Asp.Parser.parse_term "f(X, g(Y), X)" in
  let s = [ ("X", Asp.Term.int 1); ("Y", Asp.Term.const "a") ] in
  check term_testable "substitution"
    (Asp.Parser.parse_term "f(1, g(a), 1)")
    (Asp.Term.substitute s t)

let test_term_vars () =
  let t = Asp.Parser.parse_term "f(X, g(Y, X), Z)" in
  check (Alcotest.list Alcotest.string) "first-occurrence order"
    [ "X"; "Y"; "Z" ] (Asp.Term.vars t)

(* -------------------------------------------------------------------- *)
(* Parser                                                                *)
(* -------------------------------------------------------------------- *)

let test_parse_paper_listing1 () =
  (* Listing 1 of the paper, verbatim modulo whitespace. *)
  let r =
    Asp.Parser.parse_rule
      "potential_fault(C, F) :- component(C), fault(F), mitigation(F, M), \
       not active_mitigation(C, M)."
  in
  check Alcotest.string "roundtrip"
    "potential_fault(C,F) :- component(C), fault(F), mitigation(F,M), not \
     active_mitigation(C,M)."
    (Asp.Rule.to_string r)

let test_parse_paper_listing2 () =
  let r =
    Asp.Parser.parse_rule
      "component_state(C, X) :- prev_component_state(C, X), active_fault(C, \
       stuck_at_x)."
  in
  match Asp.Rule.head_atoms r with
  | [ a ] -> check Alcotest.string "head pred" "component_state" a.Asp.Atom.pred
  | _ -> fail "expected one head atom"

let test_parse_choice () =
  let r = Asp.Parser.parse_rule "1 { a(X) : b(X) ; c } 2 :- d." in
  match r with
  | Asp.Rule.Rule { head = Asp.Rule.Choice { lower; upper; elems }; body; _ } ->
      check (Alcotest.option Alcotest.int) "lower" (Some 1) lower;
      check (Alcotest.option Alcotest.int) "upper" (Some 2) upper;
      check Alcotest.int "elems" 2 (List.length elems);
      check Alcotest.int "body" 1 (List.length body)
  | _ -> fail "expected a choice rule"

let test_parse_constraint_weak () =
  (match Asp.Parser.parse_rule ":- a, not b." with
  | Asp.Rule.Rule { head = Asp.Rule.Falsity; body; _ } ->
      check Alcotest.int "body size" 2 (List.length body)
  | _ -> fail "expected a constraint");
  match Asp.Parser.parse_rule ":~ cost(C). [C@1, C]" with
  | Asp.Rule.Weak { priority; _ } -> check Alcotest.int "priority" 1 priority
  | _ -> fail "expected a weak constraint"

let test_parse_intervals () =
  let p = Asp.Parser.parse_program "time(0..3)." in
  check Alcotest.int "expanded facts" 4 (Asp.Program.size p)

let test_parse_comments () =
  let p =
    Asp.Parser.parse_program
      "a. % line comment\n%* block\n comment *% b :- a."
  in
  check Alcotest.int "two statements" 2 (Asp.Program.size p)

let test_parse_show () =
  let p = Asp.Parser.parse_program "#show risk/2. a." in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "shows" [ ("risk", 2) ] (Asp.Program.shows p)

let test_parse_errors () =
  List.iter
    (fun src ->
      match Asp.Parser.parse_program src with
      | exception Asp.Parser.Error _ -> ()
      | _ -> fail (Printf.sprintf "accepted malformed input %S" src))
    [ "a :- b"; "a b."; ":- ."; "{a} 2 1."; "#minimize { 1 }." ]

let test_parse_strings_and_negatives () =
  let r = Asp.Parser.parse_rule "label(c, \"Engineering Workstation\")." in
  match Asp.Rule.head_atoms r with
  | [ a ] ->
      check atom_testable "string arg"
        (Asp.Atom.make "label"
           [ Asp.Term.const "c"; Asp.Term.str "Engineering Workstation" ])
        a
  | _ -> fail "expected a fact"

(* -------------------------------------------------------------------- *)
(* Grounder                                                              *)
(* -------------------------------------------------------------------- *)

let test_ground_transitive_closure () =
  let g =
    Asp.Grounder.ground
      (Asp.Parser.parse_program
         "edge(a,b). edge(b,c). edge(c,d).\n\
          path(X,Y) :- edge(X,Y).\n\
          path(X,Z) :- path(X,Y), edge(Y,Z).")
  in
  (* 3 edges + 6 paths *)
  check Alcotest.int "universe" 9 (Asp.Ground.atom_count g)

let test_ground_arithmetic () =
  let g =
    Asp.Grounder.ground
      (Asp.Parser.parse_program "n(1..4). sq(X, X*X) :- n(X), X < 4.")
  in
  let models = Asp.Solver.solve g in
  match models with
  | [ m ] ->
      check
        (Alcotest.list Alcotest.string)
        "squares"
        [ "sq(1,1)"; "sq(2,4)"; "sq(3,9)" ]
        (List.map Asp.Atom.to_string (Asp.Model.by_predicate m "sq"))
  | _ -> fail "expected exactly one model"

let test_ground_assignment () =
  let models = solve_str "n(2). m(Y) :- n(X), Y = X + 3." in
  match models with
  | [ m ] ->
      check Alcotest.bool "m(5)" true
        (Asp.Model.holds m (Asp.Parser.parse_atom "m(5)"))
  | _ -> fail "expected exactly one model"

let test_ground_unsafe () =
  List.iter
    (fun src ->
      match Asp.Grounder.ground (Asp.Parser.parse_program src) with
      | exception Asp.Grounder.Unsafe _ -> ()
      | _ -> fail (Printf.sprintf "unsafe rule accepted: %S" src))
    [
      "p(X) :- q.";
      "p(X) :- not q(X).";
      "p :- q(X), X < Y.";
      ":~ q. [W@1]";
    ]

let test_ground_overflow () =
  match
    Asp.Grounder.ground ~max_atoms:50
      (Asp.Parser.parse_program "p(0). p(X+1) :- p(X).")
  with
  | exception Asp.Grounder.Overflow _ -> ()
  | _ -> fail "unbounded recursion accepted"

let test_ground_negation_simplification () =
  (* q is never derivable, so "not q" disappears from the ground rule *)
  let g = Asp.Grounder.ground (Asp.Parser.parse_program "a :- not q. ") in
  match g.Asp.Ground.rules with
  | [ Asp.Ground.Gfact a ] ->
      check Alcotest.string "simplified to fact" "a" (Asp.Atom.to_string a)
  | _ -> fail "expected the rule to simplify to a fact"

(* -------------------------------------------------------------------- *)
(* Solver: deterministic programs                                        *)
(* -------------------------------------------------------------------- *)

let test_solve_stratified_negation () =
  let models =
    solve_str "bird(tweety). bird(sam). penguin(sam).\n\
               flies(X) :- bird(X), not penguin(X)."
  in
  match models with
  | [ m ] ->
      check Alcotest.bool "tweety flies" true
        (Asp.Model.holds m (Asp.Parser.parse_atom "flies(tweety)"));
      check Alcotest.bool "sam does not" false
        (Asp.Model.holds m (Asp.Parser.parse_atom "flies(sam)"))
  | _ -> fail "expected exactly one model"

let test_solve_unsat_constraint () =
  check Alcotest.int "no models" 0 (List.length (solve_str "a. :- a."))

let test_solve_multilevel_stratification () =
  let models =
    solve_str
      "p(1). p(2). q(X) :- p(X), not r(X). r(1).\n\
       s(X) :- q(X), not t(X). t :- q(2), not u. "
  in
  match models with
  | [ m ] ->
      check Alcotest.bool "q(2)" true
        (Asp.Model.holds m (Asp.Parser.parse_atom "q(2)"));
      check Alcotest.bool "t derived" true
        (Asp.Model.holds m (Asp.Parser.parse_atom "t"));
      (* t/0 differs from t/1: s(2) needs "not t(2)", t(2) is not derivable *)
      check Alcotest.bool "s(2)" true
        (Asp.Model.holds m (Asp.Parser.parse_atom "s(2)"))
  | _ -> fail "expected exactly one model"

(* -------------------------------------------------------------------- *)
(* Solver: choice rules                                                  *)
(* -------------------------------------------------------------------- *)

let test_solve_choice_free () =
  let models = solve_str "{ a ; b }." in
  check Alcotest.int "2^2 models" 4 (List.length models)

let test_solve_choice_bounds () =
  let models = solve_str "1 { a ; b ; c } 2." in
  (* subsets of size 1 or 2: 3 + 3 = 6 *)
  check Alcotest.int "bounded subsets" 6 (List.length models)

let test_solve_choice_conditional () =
  let models = solve_str "item(1). item(2). { pick(X) : item(X) }." in
  check Alcotest.int "4 models" 4 (List.length models)

let test_solve_choice_with_body () =
  let models = solve_str "{ a } :- b." in
  (* b is false, so the choice never fires: single empty model *)
  check Alcotest.int "one model" 1 (List.length models);
  check Alcotest.int "empty model" 0
    (List.length (Asp.Model.to_list (List.hd models)))

let test_solve_choice_then_constraint () =
  let models = solve_str "{ a ; b }. :- a, b. :- not a, not b." in
  check Alcotest.int "exactly a or b" 2 (List.length models)

let test_solve_derived_from_choice () =
  let models =
    solve_str "{ fault }. alarm :- fault. ok :- not alarm."
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "both worlds"
    [ [ "alarm"; "fault" ]; [ "ok" ] ]
    (models_as_strings models)

(* -------------------------------------------------------------------- *)
(* Solver: non-stratified programs                                       *)
(* -------------------------------------------------------------------- *)

let test_solve_even_loop () =
  (* Classic: two stable models {a} and {b}. *)
  let models = solve_str "a :- not b. b :- not a." in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "two models"
    [ [ "a" ]; [ "b" ] ]
    (models_as_strings models)

let test_solve_odd_loop () =
  (* p :- not p. has no stable model. *)
  check Alcotest.int "no model" 0 (List.length (solve_str "p :- not p."))

let test_solve_positive_loop_unsupported_atoms () =
  (* a :- b. b :- a. must not make a,b true out of thin air. *)
  let models = solve_str "a :- b. b :- a." in
  match models with
  | [ m ] -> check Alcotest.int "empty model" 0 (List.length (Asp.Model.to_list m))
  | _ -> fail "expected exactly one (empty) model"

(* -------------------------------------------------------------------- *)
(* Solver: optimization                                                  *)
(* -------------------------------------------------------------------- *)

let test_solve_weak_simple () =
  let models = solve_optimal_str "{ a ; b }. :- not a, not b. :~ a. [3@1] :~ b. [1@1]" in
  match models with
  | [ m ] ->
      check Alcotest.bool "picked cheap b" true
        (Asp.Model.holds m (Asp.Atom.prop "b"));
      check Alcotest.bool "avoided a" false (Asp.Model.holds m (Asp.Atom.prop "a"));
      check Alcotest.int "cost 1" 0
        (Asp.Model.compare_cost (Asp.Model.cost m) [ (1, 1) ])
  | _ -> fail "expected a unique optimum"

let test_solve_weak_priorities () =
  (* higher priority level dominates: prefer paying 10@1 over 1@2 *)
  let models =
    solve_optimal_str
      "1 { a ; b } 1. :~ a. [1@2] :~ b. [10@1]"
  in
  match models with
  | [ m ] ->
      check Alcotest.bool "picked b (low priority cost)" true
        (Asp.Model.holds m (Asp.Atom.prop "b"))
  | _ -> fail "expected a unique optimum"

let test_solve_weak_terms_dedup () =
  (* two weak instances with the same tuple count once *)
  let models =
    solve_optimal_str
      "a. b. :~ a. [1@1, t] :~ b. [1@1, t]"
  in
  match models with
  | [ m ] ->
      check Alcotest.int "deduplicated cost" 0
        (Asp.Model.compare_cost (Asp.Model.cost m) [ (1, 1) ])
  | _ -> fail "expected one model"

let test_solve_limit () =
  let models = solve_str ~limit:3 "{ a ; b ; c ; d }." in
  check Alcotest.int "limited" 3 (List.length models)

let test_solver_guess_bound () =
  (* the guess cap survives only in the retained DFS; the CDNL solver has
     no cap and must answer (full enumeration would be 2^70 models, so the
     check goes through [satisfiable] and [limit]) *)
  let atoms =
    String.concat " ; " (List.init 70 (fun i -> Printf.sprintf "x%d" i))
  in
  let src = Printf.sprintf "{ %s }." atoms in
  let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
  (match Asp.Dfs.solve g with
  | exception Asp.Dfs.Unsupported _ -> ()
  | _ -> fail "expected Dfs.Unsupported for a 70-atom guess space");
  check Alcotest.bool "cdnl satisfiable" true (Asp.Solver.satisfiable g);
  check Alcotest.int "cdnl limited enumeration" 4
    (List.length (Asp.Solver.solve ~limit:4 g))

let test_solver_beyond_naive_bound () =
  (* 28 choice atoms, far past the exhaustive enumerator's cap of 24: each
     atom is pinned by a constraint, so the pruned search closes the out
     branches immediately instead of walking 2^28 subsets *)
  let n = 28 in
  let atoms = String.concat " ; " (List.init n (Printf.sprintf "x%d")) in
  let pins =
    String.concat "\n" (List.init n (Printf.sprintf ":- not x%d."))
  in
  let models = solve_str (Printf.sprintf "{ %s }.\n%s" atoms pins) in
  match models with
  | [ m ] -> check Alcotest.int "all pinned in" n (List.length (Asp.Model.to_list m))
  | ms -> fail (Printf.sprintf "expected one model, got %d" (List.length ms))

let test_solver_stats () =
  let g =
    Asp.Grounder.ground
      (Asp.Parser.parse_program "{ a ; b }. c :- a. :- a, b.")
  in
  let models, stats = Asp.Solver.solve_with_stats g in
  check Alcotest.int "three models" 3 (List.length models);
  check Alcotest.int "stats agree on model count" 3 stats.Asp.Solver.Stats.models;
  check Alcotest.bool "explored both branches of both choices" true
    (stats.Asp.Solver.Stats.guesses >= 2);
  check Alcotest.bool "hit the a,b conflict" true
    (stats.Asp.Solver.Stats.conflicts + stats.Asp.Solver.Stats.pruned >= 1);
  check Alcotest.bool "propagations counted" true
    (stats.Asp.Solver.Stats.firings >= 3);
  check Alcotest.bool "wall clock measured" true
    (stats.Asp.Solver.Stats.wall_s >= 0.)

let test_solver_optimal_stats () =
  let g =
    Asp.Grounder.ground
      (Asp.Parser.parse_program
         "1 { a ; b } 1. :~ a. [5@1] :~ b. [1@1]")
  in
  let models, stats = Asp.Solver.solve_optimal_with_stats g in
  (match models with
  | [ m ] ->
      check Alcotest.bool "picked the cheap atom" true
        (Asp.Model.holds m (Asp.Atom.prop "b"))
  | _ -> fail "expected a unique optimum");
  check Alcotest.bool "found both candidates" true
    (stats.Asp.Solver.Stats.models >= 1)

(* -------------------------------------------------------------------- *)
(* Deps                                                                  *)
(* -------------------------------------------------------------------- *)

let test_deps_stratified () =
  let p =
    Asp.Parser.parse_program "a :- not b. b :- c. c."
  in
  let g = Asp.Deps.of_program p in
  check Alcotest.bool "stratified" true (Asp.Deps.stratified g);
  match Asp.Deps.strata g with
  | Some strata ->
      let stratum name = List.assoc (name, 0) strata in
      check Alcotest.bool "a above b" true (stratum "a" > stratum "b")
  | None -> fail "expected strata"

let test_deps_not_stratified () =
  let p = Asp.Parser.parse_program "a :- not b. b :- not a." in
  let g = Asp.Deps.of_program p in
  check Alcotest.bool "not stratified" false (Asp.Deps.stratified g);
  check Alcotest.bool "no strata" true (Asp.Deps.strata g = None)

let test_deps_choice_predicates () =
  let p = Asp.Parser.parse_program "{ a(X) : b(X) }. b(1)." in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "choice preds" [ ("a", 1) ]
    (Asp.Deps.choice_predicates p)

(* -------------------------------------------------------------------- *)
(* Interned models: editing the universe equals inserting atoms          *)
(* -------------------------------------------------------------------- *)

module AtomSet = Asp.Model.AtomSet

let inserted (p : Asp.Interned.t) bits =
  let acc = ref AtomSet.empty in
  Asp.Bitset.iter_true
    (fun i -> acc := AtomSet.add (Asp.Interned.atom p i) !acc)
    bits;
  !acc

let edited_is_inserted p bits =
  AtomSet.equal (Asp.Interned.atoms_of_bitset p bits) (inserted p bits)

let bitset_of n pred =
  let b = Asp.Bitset.create n in
  for i = 0 to n - 1 do
    if pred i then Asp.Bitset.set b i
  done;
  b

(* [atoms_of_bitset] edits the base universe for dense sets and inserts
   for sparse ones: both must equal plain insertion of the set ids,
   whether they fall in the base or among the appended ones. *)
let check_bitsets ~what (p : Asp.Interned.t) =
  let n = p.Asp.Interned.n_atoms in
  let rng = Random.State.make [| 0x1d5; n |] in
  let random density =
    bitset_of n (fun _ -> Random.State.float rng 1.0 < density)
  in
  let bitsets =
    bitset_of n (fun _ -> false)
    :: bitset_of n (fun _ -> true)
    :: List.concat_map
         (fun d -> List.init 3 (fun _ -> random d))
         [ 0.1; 0.5; 0.9; 0.99 ]
  in
  List.iter
    (fun bits ->
      if not (edited_is_inserted p bits) then
        Alcotest.failf "%s: %d of %d atoms set: edited set differs" what
          (Asp.Bitset.cardinal bits) n)
    bitsets

let check_ascending ~what (atoms : Asp.Atom.t array) =
  for i = 1 to Array.length atoms - 1 do
    if Asp.Atom.compare atoms.(i - 1) atoms.(i) >= 0 then
      Alcotest.failf "%s: ids %d, %d not in Atom.compare order" what (i - 1) i
  done

(* ids [0, n_universe) are [universe] in Atom.compare order *)
let check_universe ~what (p : Asp.Interned.t) universe =
  let u = Array.sub p.Asp.Interned.atoms 0 p.Asp.Interned.n_universe in
  if not (AtomSet.equal (AtomSet.of_list (Array.to_list u)) universe) then
    fail (what ^ ": ids below n_universe are not the universe");
  check_ascending ~what u

let check_model_construction ~what (g : Asp.Ground.t) =
  let p = Asp.Interned.compile g in
  check_universe ~what p g.Asp.Ground.universe;
  check_bitsets ~what p

(* a compiled increment: base ids in Atom.compare order, the increment's
   new atoms appended after them, in Atom.compare order among
   themselves *)
let check_increment ~what prep inc =
  let p = Asp.Grounder.compile inc in
  check_universe ~what p (Asp.Grounder.base_universe prep);
  let nb = p.Asp.Interned.n_base in
  let fresh = Asp.Grounder.new_atoms inc in
  let appended =
    Array.init (List.length fresh) (fun i -> Asp.Interned.atom p (nb + i))
  in
  if not (List.equal Asp.Atom.equal (Array.to_list appended) fresh) then
    fail (what ^ ": the increment's atoms are not appended in order");
  check_ascending ~what appended;
  check_bitsets ~what p

(* the three what-if backends, each with deltas its jobs solve *)
let whatif_backends () =
  let tank =
    Cpsrisk.Sweeps.water_tank_spec ~horizon:12
      (Cpsrisk.Sweeps.all_fault_deltas Cpsrisk.Water_tank.faults)
  in
  let actions =
    List.map
      (fun a -> a.Mitigation.Action.id)
      Cpsrisk.Hierarchy.frontier_actions
  in
  let hierarchy = Cpsrisk.Hierarchy.frontier_spec () in
  let press_cell =
    let src =
      In_channel.with_open_text "../examples/models/press_cell.model"
        In_channel.input_all
    in
    match Cpsrisk.Ops.load ~model_src:src Cpsrisk.Ops.Topology with
    | Ok l -> l.Cpsrisk.Ops.spec
    | Error e -> fail e
  in
  [
    ("water tank", tank, tank.Engine.Job.deltas);
    ( "hierarchy",
      hierarchy,
      [] :: List.map (fun a -> [ a ]) actions @ [ actions ]
      |> List.map (fun active -> Cpsrisk.Hierarchy.frontier_delta ~active) );
    ("press cell", press_cell, press_cell.Engine.Job.deltas);
  ]

let test_interned_corpus () =
  List.iteri
    (fun i src ->
      check_model_construction ~what:(Printf.sprintf "corpus #%d" i)
        (Asp.Grounder.ground (Asp.Parser.parse_program src)))
    Test_solver_diff.corpus

let test_interned_whatif () =
  List.iter
    (fun (what, (spec : Engine.Job.spec), deltas) ->
      let prep = Asp.Grounder.prepare spec.Engine.Job.base in
      List.iteri
        (fun i d ->
          check_increment ~what:(Printf.sprintf "%s #%d" what i) prep
            (Asp.Grounder.increment prep (spec.Engine.Job.compile d)))
        deltas)
    (whatif_backends ())

(* a hand-built program whose rules mention atoms outside its universe:
   those take the ids after the universe and are always inserted *)
let test_interned_outside_universe () =
  let a name = Asp.Atom.prop name in
  let universe =
    AtomSet.of_list (List.map a [ "u5"; "u1"; "u3"; "u0"; "u4"; "u2" ])
  in
  let g =
    {
      Asp.Ground.rules =
        [
          Asp.Ground.Gfact (a "x");
          Asp.Ground.Grule
            { head = a "u1"; pos = [ a "y" ]; neg = [ a "u4" ]; counts = [] };
        ];
      universe;
      shows = [];
    }
  in
  let p = Asp.Interned.compile g in
  check Alcotest.int "universe ids" 6 p.Asp.Interned.n_universe;
  check Alcotest.int "all ids" 8 p.Asp.Interned.n_atoms;
  check Alcotest.int "outside atom after the universe" 6
    (Asp.Interned.id p (a "x"));
  check_model_construction ~what:"outside universe" g;
  for mask = 0 to 255 do
    let bits = bitset_of 8 (fun i -> mask land (1 lsl i) <> 0) in
    if not (edited_is_inserted p bits) then
      Alcotest.failf "outside universe: mask %d differs" mask
  done

(* -------------------------------------------------------------------- *)
(* Property tests: solver models pass the Gelfond–Lifschitz oracle       *)
(* -------------------------------------------------------------------- *)

(* Random propositional programs over a small vocabulary. *)
let random_program_gen =
  let open QCheck.Gen in
  let atom_name = oneofl [ "a"; "b"; "c"; "d" ] in
  let lit = map2 (fun neg a -> (neg, a)) bool atom_name in
  let rule =
    map2
      (fun head body ->
        let body_str =
          body
          |> List.map (fun (neg, a) -> if neg then "not " ^ a else a)
          |> String.concat ", "
        in
        if body = [] then head ^ "."
        else Printf.sprintf "%s :- %s." head body_str)
      atom_name
      (list_size (int_range 0 3) lit)
  in
  let choice =
    map
      (fun atoms ->
        Printf.sprintf "{ %s }." (String.concat " ; " atoms))
      (list_size (int_range 1 2) atom_name)
  in
  let statement = frequency [ (3, rule); (1, choice) ] in
  map (String.concat "\n") (list_size (int_range 1 6) statement)

let prop_models_are_stable =
  QCheck.Test.make ~name:"solver: every model passes the GL oracle" ~count:300
    (QCheck.make ~print:(fun s -> s) random_program_gen)
    (fun src ->
      let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
      let models = Asp.Solver.solve g in
      List.for_all
        (fun m -> Asp.Solver.is_stable_model g (Asp.Model.atoms m))
        models)

let prop_models_unique =
  QCheck.Test.make ~name:"solver: models are pairwise distinct" ~count:200
    (QCheck.make ~print:(fun s -> s) random_program_gen)
    (fun src ->
      let g = Asp.Grounder.ground (Asp.Parser.parse_program src) in
      let models = Asp.Solver.solve g in
      let rec distinct = function
        | [] -> true
        | m :: rest ->
            (not (List.exists (Asp.Model.equal m) rest)) && distinct rest
      in
      distinct models)

let prop_parser_roundtrip =
  QCheck.Test.make ~name:"parser: print-parse roundtrip on programs" ~count:200
    (QCheck.make ~print:(fun s -> s) random_program_gen)
    (fun src ->
      let p = Asp.Parser.parse_program src in
      let p' = Asp.Parser.parse_program (Asp.Program.to_string p) in
      Asp.Program.to_string p = Asp.Program.to_string p')

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "asp.term",
      [
        Alcotest.test_case "eval" `Quick test_term_eval;
        Alcotest.test_case "eval errors" `Quick test_term_eval_errors;
        Alcotest.test_case "substitute" `Quick test_term_substitute;
        Alcotest.test_case "vars" `Quick test_term_vars;
      ] );
    ( "asp.parser",
      [
        Alcotest.test_case "paper listing 1" `Quick test_parse_paper_listing1;
        Alcotest.test_case "paper listing 2" `Quick test_parse_paper_listing2;
        Alcotest.test_case "choice" `Quick test_parse_choice;
        Alcotest.test_case "constraint & weak" `Quick test_parse_constraint_weak;
        Alcotest.test_case "intervals" `Quick test_parse_intervals;
        Alcotest.test_case "comments" `Quick test_parse_comments;
        Alcotest.test_case "show" `Quick test_parse_show;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "strings" `Quick test_parse_strings_and_negatives;
        qcheck prop_parser_roundtrip;
      ] );
    ( "asp.grounder",
      [
        Alcotest.test_case "transitive closure" `Quick
          test_ground_transitive_closure;
        Alcotest.test_case "arithmetic" `Quick test_ground_arithmetic;
        Alcotest.test_case "assignment" `Quick test_ground_assignment;
        Alcotest.test_case "unsafe rules" `Quick test_ground_unsafe;
        Alcotest.test_case "overflow" `Quick test_ground_overflow;
        Alcotest.test_case "negation simplification" `Quick
          test_ground_negation_simplification;
      ] );
    ( "asp.solver",
      [
        Alcotest.test_case "stratified negation" `Quick
          test_solve_stratified_negation;
        Alcotest.test_case "unsat constraint" `Quick test_solve_unsat_constraint;
        Alcotest.test_case "multi-level strata" `Quick
          test_solve_multilevel_stratification;
        Alcotest.test_case "choice free" `Quick test_solve_choice_free;
        Alcotest.test_case "choice bounds" `Quick test_solve_choice_bounds;
        Alcotest.test_case "choice conditional" `Quick
          test_solve_choice_conditional;
        Alcotest.test_case "choice with false body" `Quick
          test_solve_choice_with_body;
        Alcotest.test_case "choice + constraints" `Quick
          test_solve_choice_then_constraint;
        Alcotest.test_case "derived from choice" `Quick
          test_solve_derived_from_choice;
        Alcotest.test_case "even negative loop" `Quick test_solve_even_loop;
        Alcotest.test_case "odd negative loop" `Quick test_solve_odd_loop;
        Alcotest.test_case "positive loop unsupported" `Quick
          test_solve_positive_loop_unsupported_atoms;
        Alcotest.test_case "weak constraints" `Quick test_solve_weak_simple;
        Alcotest.test_case "weak priorities" `Quick test_solve_weak_priorities;
        Alcotest.test_case "weak tuple dedup" `Quick test_solve_weak_terms_dedup;
        Alcotest.test_case "limit" `Quick test_solve_limit;
        Alcotest.test_case "guess bound" `Quick test_solver_guess_bound;
        Alcotest.test_case "beyond naive guess bound" `Quick
          test_solver_beyond_naive_bound;
        Alcotest.test_case "search stats" `Quick test_solver_stats;
        Alcotest.test_case "optimal search stats" `Quick
          test_solver_optimal_stats;
        qcheck prop_models_are_stable;
        qcheck prop_models_unique;
      ] );
    ( "asp.interned",
      [
        Alcotest.test_case "models of the solver-diff corpus" `Quick
          test_interned_corpus;
        Alcotest.test_case "models of extended what-if programs" `Quick
          test_interned_whatif;
        Alcotest.test_case "atoms outside the universe" `Quick
          test_interned_outside_universe;
      ] );
    ( "asp.deps",
      [
        Alcotest.test_case "stratified" `Quick test_deps_stratified;
        Alcotest.test_case "not stratified" `Quick test_deps_not_stratified;
        Alcotest.test_case "choice predicates" `Quick test_deps_choice_predicates;
      ] );
  ]

(* Differential tests for the grounder rewrite: the production grounder
   (Asp.Grounder — semi-naive fixpoint, first-argument indexes, incremental
   extend) against the retained naive oracle (Asp.Naive_ground) on seeded
   random non-ground programs and hand-picked corners. One-shot grounding
   must agree bit-for-bit on the produced Ground.t; prepare/extend must
   agree with grounding base+delta from scratch up to the duplicate-rule
   caveat documented on [Asp.Grounder.extend]. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* keep the universes small so unbounded arithmetic recursion, when the
   generator produces it, overflows quickly on both sides *)
let max_atoms = 400

(* ------------------------------------------------------------------ *)
(* Seeded random non-ground program generator                           *)
(* ------------------------------------------------------------------ *)

(* Programs over unary preds p/q/t, binary r/e, choice-head h, with
   integer constants only (so comparisons and assignments always evaluate),
   exercising joins, recursion, default negation, assignments, builtin
   comparisons, choice rules with conditions, aggregates over variables,
   integrity and weak constraints. Safety is maintained by construction:
   head, negated and builtin variables are drawn from variables already
   used in positive body literals (or assigned). *)

let upreds = [| "p"; "q"; "t" |]
let bpreds = [| "r"; "e" |]

let gen_facts rng buf n =
  let int n = Random.State.int rng n in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  for _ = 1 to n do
    if Random.State.bool rng then
      stmt "%s(%d)." upreds.(int 3) (1 + int 4)
    else stmt "%s(%d,%d)." bpreds.(int 2) (1 + int 4) (1 + int 4)
  done

let gen_rule rng buf =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let vars = [| "X"; "Y"; "Z" |] in
  let used = ref [] in
  let use v = if not (List.mem v !used) then used := v :: !used in
  let arg () =
    if int 4 = 0 then string_of_int (1 + int 4)
    else begin
      let v = vars.(int 3) in
      use v;
      v
    end
  in
  let body =
    List.init (1 + int 2) (fun _ ->
        if bool () then Printf.sprintf "%s(%s)" upreds.(int 3) (arg ())
        else Printf.sprintf "%s(%s,%s)" bpreds.(int 2) (arg ()) (arg ()))
  in
  let bound () =
    match !used with
    | [] -> string_of_int (1 + int 4)
    | l -> List.nth l (int (List.length l))
  in
  let body, assigned =
    if !used <> [] && int 3 = 0 then
      (body @ [ Printf.sprintf "W = %s + %d" (bound ()) (int 3) ], true)
    else (body, false)
  in
  let body =
    if int 3 = 0 then
      body
      @ [
          (if bool () then Printf.sprintf "not %s(%s)" upreds.(int 3) (bound ())
           else
             Printf.sprintf "not %s(%s,%s)" bpreds.(int 2) (bound ()) (bound ()));
        ]
    else body
  in
  let body =
    if !used <> [] && int 3 = 0 then begin
      let ops = [| "<"; "<="; ">"; ">="; "!="; "=" |] in
      body
      @ [
          Printf.sprintf "%s %s %s" (bound ()) ops.(int 6)
            (if bool () then bound () else string_of_int (int 5));
        ]
    end
    else body
  in
  let head_arg () =
    if assigned && bool () then "W"
    else if int 4 = 0 then string_of_int (1 + int 4)
    else bound ()
  in
  let head =
    if bool () then Printf.sprintf "%s(%s)" upreds.(int 3) (head_arg ())
    else Printf.sprintf "%s(%s,%s)" bpreds.(int 2) (head_arg ()) (head_arg ())
  in
  stmt "%s :- %s." head (String.concat ", " body)

let gen_choice rng buf =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let elems =
    List.init (1 + int 2) (fun _ ->
        let v = [| "X"; "Y" |].(int 2) in
        Printf.sprintf "h(%s) : %s(%s)" v upreds.(int 3) v)
  in
  let body =
    if bool () then ""
    else Printf.sprintf " :- %s(%s)" upreds.(int 3) (string_of_int (1 + int 4))
  in
  let lower = if int 3 = 0 then string_of_int (int 2) ^ " " else "" in
  let upper = if int 3 = 0 then " " ^ string_of_int (1 + int 2) else "" in
  stmt "%s{ %s }%s%s." lower (String.concat " ; " elems) upper body

let gen_extras rng buf =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* aggregates over variables: multi-element ground aggregates *)
  if int 2 = 0 then begin
    let agg = if bool () then "#count" else "#sum" in
    let op = [| ">="; "<="; ">"; "<" |].(int 4) in
    stmt "g(X) :- %s(X), %s { Y : %s(X,Y) } %s %d." upreds.(int 3) agg
      bpreds.(int 2) op (int 3)
  end;
  if int 3 = 0 then stmt "win :- #count { X : h(X) } >= %d." (1 + int 2);
  (* integrity constraints *)
  if int 2 = 0 then
    stmt ":- %s(X), not %s(X)." upreds.(int 3) upreds.(int 3);
  (* weak constraints, sometimes with a variable weight *)
  if int 2 = 0 then begin
    if bool () then stmt ":~ %s(X). [X@%d, X]" upreds.(int 3) (1 + int 2)
    else
      stmt ":~ %s(X,Y). [%d@1, X, Y]" bpreds.(int 2) (1 + int 3)
  end

let gen_program rng =
  let int n = Random.State.int rng n in
  let buf = Buffer.create 512 in
  gen_facts rng buf (3 + int 4);
  for _ = 1 to 2 + int 4 do
    gen_rule rng buf
  done;
  for _ = 1 to 1 + int 2 do
    gen_choice rng buf
  done;
  gen_extras rng buf;
  Buffer.contents buf

(* a small increment over the same vocabulary, for the extend tests *)
let gen_delta rng =
  let int n = Random.State.int rng n in
  let buf = Buffer.create 128 in
  gen_facts rng buf (1 + int 3);
  for _ = 1 to int 3 do
    gen_rule rng buf
  done;
  if int 3 = 0 then gen_choice rng buf;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Builtin-heavy and interval-comparison generators                     *)
(* ------------------------------------------------------------------ *)

(* Rules whose bodies are dominated by builtins — several comparisons and
   chained assignments per rule over integer-valued predicates — so the
   pending-builtin discharge order and the builtin-aware index probing
   carry most of the work. *)
let gen_builtin_rule rng buf =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let ops = [| "<"; "<="; ">"; ">="; "!=" |] in
  let body = ref [ Printf.sprintf "%s(X)" upreds.(int 3) ] in
  let used = ref [ "X" ] in
  if bool () then begin
    body := !body @ [ Printf.sprintf "%s(X,Y)" bpreds.(int 2) ];
    used := "Y" :: !used
  end;
  let pick l = List.nth l (int (List.length l)) in
  (* one to three comparisons: variable vs constant (the range-probe
     shape) and variable vs variable *)
  for _ = 1 to 1 + int 3 do
    let l = pick !used in
    let r = if bool () then string_of_int (int 6) else pick !used in
    body := !body @ [ Printf.sprintf "%s %s %s" l ops.(int 5) r ]
  done;
  (* zero to two chained assignments *)
  let assigned = ref [] in
  for i = 1 to int 3 do
    let w = Printf.sprintf "W%d" i in
    let src =
      match !assigned with
      | a :: _ when bool () -> a
      | _ -> pick !used
    in
    let op = if bool () then "+" else "*" in
    body := !body @ [ Printf.sprintf "%s = %s %s %d" w src op (1 + int 3) ];
    assigned := w :: !assigned
  done;
  let head_arg =
    match !assigned with w :: _ when bool () -> w | _ -> pick !used
  in
  stmt "%s(%s) :- %s." upreds.(int 3) head_arg (String.concat ", " !body)

let gen_builtin_program rng =
  let int n = Random.State.int rng n in
  let buf = Buffer.create 512 in
  gen_facts rng buf (4 + int 5);
  for _ = 1 to 3 + int 4 do
    gen_builtin_rule rng buf
  done;
  Buffer.contents buf

(* Interval-comparison joins over dense integer ranges: the enumerated
   literal's only variable is bounded by comparisons against constants or
   against already-bound variables — exactly the shape the grounder's
   range tier narrows. A sparse integer predicate rides along so missing
   buckets and partial ranges are hit too. *)
let gen_interval_program rng =
  let int n = Random.State.int rng n in
  let bool () = Random.State.bool rng in
  let buf = Buffer.create 512 in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let n = 8 + int 17 in
  stmt "m(1..%d)." (4 + int 8);
  stmt "n(1..%d)." n;
  for _ = 1 to 3 + int 4 do
    stmt "s(%d)." (1 + int (2 * n))
  done;
  let ops = [| "<"; "<="; ">"; ">=" |] in
  for _ = 1 to 3 + int 4 do
    let second = if bool () then "n" else "s" in
    let guards =
      Printf.sprintf "Y %s X" ops.(int 4)
      ::
      (if bool () then [ Printf.sprintf "Y %s %d" ops.(int 4) (1 + int n) ]
       else [])
    in
    stmt "j%d(X,Y) :- m(X), %s(Y), %s." (int 5) second
      (String.concat ", " guards)
  done;
  (* interval membership between two constants *)
  for _ = 1 to 1 + int 3 do
    let a = 1 + int n and b = 1 + int n in
    stmt "in%d(Y) :- n(Y), Y >= %d, Y <= %d." (int 3) (min a b) (max a b)
  done;
  (* recursion through an interval guard *)
  if bool () then stmt "r(1). r(X+1) :- r(X), X < %d." (3 + int 10);
  Buffer.contents buf

(* increments over the interval vocabulary: new sparse facts, sometimes a
   widened dense range or a fresh guarded rule *)
let gen_interval_delta rng =
  let int n = Random.State.int rng n in
  let buf = Buffer.create 128 in
  let stmt fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  for _ = 1 to 2 + int 3 do
    stmt "s(%d)." (1 + int 40)
  done;
  if int 2 = 0 then stmt "n(%d..%d)." (20 + int 5) (26 + int 6);
  if int 2 = 0 then stmt "k%d(Y) :- n(Y), Y > %d." (int 3) (int 20);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* One-shot grounding: bit-for-bit parity                               *)
(* ------------------------------------------------------------------ *)

type outcome = Grounded of Asp.Ground.t | Unsafe | Overflow

let outcome_name = function
  | Grounded g ->
      Printf.sprintf "ground (%d rules, %d atoms)" (Asp.Ground.rule_count g)
        (Asp.Ground.atom_count g)
  | Unsafe -> "Unsafe"
  | Overflow -> "Overflow"

let run_new p =
  match Asp.Grounder.ground ~max_atoms p with
  | g -> Grounded g
  | exception Asp.Grounder.Unsafe _ -> Unsafe
  | exception Asp.Grounder.Overflow _ -> Overflow

let run_oracle p =
  match Asp.Naive_ground.ground ~max_atoms p with
  | g -> Grounded g
  | exception Asp.Naive_ground.Unsafe _ -> Unsafe
  | exception Asp.Naive_ground.Overflow _ -> Overflow

let render g =
  String.concat "\n"
    (List.map (Format.asprintf "%a" Asp.Ground.pp_rule) g.Asp.Ground.rules)

let diff_one src =
  let p = Asp.Parser.parse_program src in
  let a = run_new p and b = run_oracle p in
  match (a, b) with
  | Grounded ga, Grounded gb ->
      if not (Asp.Ground.equal ga gb) then
        fail
          (Printf.sprintf
             "grounders diverged on program:\n%s\n--- new:\n%s\n--- oracle:\n%s"
             src (render ga) (render gb))
  | Unsafe, Unsafe | Overflow, Overflow -> ()
  | a, b ->
      fail
        (Printf.sprintf "outcome divergence on program:\n%s\n  new: %s\n  oracle: %s"
           src (outcome_name a) (outcome_name b))

let test_diff_seeded () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x96D; seed |] in
    diff_one (gen_program rng)
  done

let test_diff_builtin_seeded () =
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0xB17; seed |] in
    diff_one (gen_builtin_program rng)
  done

let test_diff_interval_seeded () =
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0x1A7; seed |] in
    diff_one (gen_interval_program rng)
  done

let corners =
  [
    (* transitive closure: recursion through a binary predicate *)
    "edge(1,2). edge(2,3). edge(3,4). path(X,Y) :- edge(X,Y).\n\
     path(X,Z) :- path(X,Y), edge(Y,Z).";
    (* symbolic constants and function terms *)
    "edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y).\n\
     path(X,Z) :- path(X,Y), edge(Y,Z).";
    "f(1). g(f(X)) :- f(X). h(X) :- g(f(X)).";
    (* joins that profit from (and must not be changed by) the first-arg index *)
    "n(1..4). e(X,Y) :- n(X), n(Y), Y = X + 1. two(Z) :- e(1,Z). tri(X,Z) :- \
     e(X,Y), e(Y,Z).";
    (* assignments chained through builtins *)
    "base(5). a(X) :- base(B), X = B + 1. b(Y) :- a(X), Y = X * 2.";
    (* comparisons incl. equality used as a test *)
    "n(1..4). sq(X, X*X) :- n(X), X < 4. d(X) :- n(X), X != 2, X >= 2.";
    (* negation with universe simplification across predicates *)
    "p(1). p(2). s(1). q(X) :- p(X), not s(X). w :- not missing.";
    (* choice rules: bounds, conditions, multiple elements *)
    "item(1). item(2). item(3). 1 { pick(X) : item(X) } 2.";
    "t(1). t(2). 1 { c(X) : t(X) ; d(X) : t(X) } 3 :- t(1).";
    "a(1). { h(X) : a(X), not b(X) }. b(1) :- h(1).";
    (* aggregates over variables: multi-element, outer-variable conditions *)
    "p(1). p(2). q(X) :- p(X), #count { Y : p(Y), Y <= X } >= 2.";
    "v(1). v(2). v(3). w(X,Y) :- v(X), v(Y). big :- #sum { X,Y : w(X,Y) } >= \
     10.";
    "item(1). item(2). { in(X) : item(X) }. :- #count { X : in(X) } > 1.";
    (* weak constraints: variable weights, tuples, priorities *)
    "p(1). p(2). :~ p(X). [X@1, X]";
    "p(1). p(2). cost(X,2) :- p(X). :~ cost(X,W). [W@2, X]";
    (* non-integer weak weight rejected identically *)
    "sym(c1). :~ sym(X). [X@1]";
    (* bounded arithmetic recursion terminates identically *)
    "n(0). n(X+1) :- n(X), X < 50.";
    (* unbounded arithmetic recursion overflows identically *)
    "p(0). p(X + 1) :- p(X).";
    (* unsafe rules rejected identically *)
    "p(X) :- q.";
    "p(X) :- not q(X).";
    (* duplicate rules and facts: global dedup parity *)
    "p(1). p(1). q(X) :- p(X). q(X) :- p(X).";
  ]

let test_diff_corners () = List.iter diff_one corners

(* ------------------------------------------------------------------ *)
(* Selectivity-ordered grounding: still bit-for-bit                    *)
(* ------------------------------------------------------------------ *)

(* [ground ~order] with the analysis-inferred join ordering must stay
   bit-for-bit equal to the oracle: the permutation only changes the
   enumeration, and the per-rule sort restores canonical emission order. *)

let run_ordered p =
  let order = Analysis.Infer.join_order (Analysis.Infer.analyze p) in
  match Asp.Grounder.ground ~max_atoms ~order p with
  | g -> Grounded g
  | exception Asp.Grounder.Unsafe _ -> Unsafe
  | exception Asp.Grounder.Overflow _ -> Overflow

let diff_one_ordered src =
  let p = Asp.Parser.parse_program src in
  let a = run_ordered p and b = run_oracle p in
  match (a, b) with
  | Grounded ga, Grounded gb ->
      if not (Asp.Ground.equal ga gb) then
        fail
          (Printf.sprintf
             "ordered grounder diverged on program:\n%s\n--- ordered:\n%s\n\
              --- oracle:\n%s"
             src (render ga) (render gb))
  | Unsafe, Unsafe | Overflow, Overflow -> ()
  | a, b ->
      fail
        (Printf.sprintf
           "ordered outcome divergence on program:\n%s\n  ordered: %s\n\
           \  oracle: %s"
           src (outcome_name a) (outcome_name b))

let test_ordered_seeded () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x96D; seed |] in
    diff_one_ordered (gen_program rng)
  done

let test_ordered_corners () = List.iter diff_one_ordered corners

(* the ordering must actually fire on a join written worst-first, and the
   output must still match both the unordered and the naive groundings *)
let test_ordered_reorders () =
  let src =
    "big(1..60). tiny(1). tiny(2). tiny(3).\n\
     hit(X) :- big(X), tiny(X).\n\
     pair(X,Y) :- big(X), big(Y), tiny(Y)."
  in
  let p = Asp.Parser.parse_program src in
  let info = Analysis.Infer.analyze p in
  let order = Analysis.Infer.join_order info in
  let reordered =
    List.exists
      (fun r -> Asp.Rule.body r <> [] && order r <> None)
      (Asp.Program.rules p)
  in
  check Alcotest.bool "some rule was reordered" true reordered;
  let ga = Asp.Grounder.ground ~order p in
  let gu = Asp.Grounder.ground p in
  let gn = Asp.Naive_ground.ground p in
  check Alcotest.bool "ordered = unordered" true (Asp.Ground.equal ga gu);
  check Alcotest.bool "ordered = naive" true (Asp.Ground.equal ga gn)

(* prepare/extend with an ordering: base equals the unordered one-shot
   grounding, and extending stays equivalent to grounding from scratch *)
let test_ordered_prepare_extend () =
  let base_src =
    "e(1,2). e(2,3). e(3,4). n(1..40).\n\
     path(X,Y) :- e(X,Y). path(X,Z) :- path(X,Y), e(Y,Z).\n\
     touch(X) :- n(X), path(1,X)."
  in
  let base = Asp.Parser.parse_program base_src in
  let order = Analysis.Infer.join_order (Analysis.Infer.analyze base) in
  let st = Asp.Grounder.prepare ~order base in
  check Alcotest.bool "ordered base = unordered ground" true
    (Asp.Ground.equal (Asp.Grounder.base st) (Asp.Grounder.ground base));
  let delta = Asp.Parser.parse_program "e(4,5). e(5,6)." in
  let ge = Asp.Grounder.extend st delta in
  let gs = Asp.Grounder.ground (Asp.Program.append base delta) in
  check Alcotest.bool "universes" true
    (Asp.Model.AtomSet.equal ge.Asp.Ground.universe gs.Asp.Ground.universe);
  let canon rules = List.sort_uniq compare rules in
  if canon ge.Asp.Ground.rules <> canon gs.Asp.Ground.rules then
    fail "ordered extend diverged from scratch grounding"

(* ------------------------------------------------------------------ *)
(* prepare/extend soundness                                             *)
(* ------------------------------------------------------------------ *)

(* extend's output may repeat a ground rule that two source rules share
   (no cross-rule dedup on reused instances), so rule lists are compared
   as sorted duplicate-free sets; universes and shows must match exactly. *)
let canon rules = List.sort_uniq compare rules

let extend_one base_src delta_src =
  let base = Asp.Parser.parse_program base_src in
  let delta = Asp.Parser.parse_program delta_src in
  match Asp.Grounder.prepare ~max_atoms base with
  | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) -> ()
  | st -> (
      (* the base's own grounding is exactly the one-shot result *)
      if not (Asp.Ground.equal (Asp.Grounder.base st) (Asp.Grounder.ground ~max_atoms base))
      then fail (Printf.sprintf "prepare diverged from ground on base:\n%s" base_src);
      let ext =
        match Asp.Grounder.extend st delta with
        | g -> Grounded g
        | exception Asp.Grounder.Unsafe _ -> Unsafe
        | exception Asp.Grounder.Overflow _ -> Overflow
      in
      let scratch = run_new (Asp.Program.append base delta) in
      match (ext, scratch) with
      | Grounded ge, Grounded gs ->
          if not (Asp.Model.AtomSet.equal ge.Asp.Ground.universe gs.Asp.Ground.universe)
          then
            fail
              (Printf.sprintf "extend universe diverged on:\n%s\n+ delta:\n%s"
                 base_src delta_src);
          check
            (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
            "shows" gs.Asp.Ground.shows ge.Asp.Ground.shows;
          if canon ge.Asp.Ground.rules <> canon gs.Asp.Ground.rules then
            fail
              (Printf.sprintf
                 "extend rules diverged on:\n%s\n+ delta:\n%s\n--- extend:\n\
                  %s\n--- scratch:\n%s"
                 base_src delta_src (render ge) (render gs))
      | Unsafe, Unsafe | Overflow, Overflow -> ()
      | e, s ->
          fail
            (Printf.sprintf
               "extend outcome divergence on:\n%s\n+ delta:\n%s\n  extend: %s\n\
               \  scratch: %s"
               base_src delta_src (outcome_name e) (outcome_name s)))

let test_extend_seeded () =
  for seed = 0 to 119 do
    let rng = Random.State.make [| 0xE7E; seed |] in
    let base = gen_program rng in
    let delta = gen_delta rng in
    extend_one base delta
  done

let test_extend_builtin_seeded () =
  for seed = 0 to 59 do
    let rng = Random.State.make [| 0xB1E; seed |] in
    let base = gen_builtin_program rng in
    (* gen_delta shares the p/q/t/r/e vocabulary, so increments feed the
       builtin-heavy rules *)
    extend_one base (gen_delta rng)
  done

let test_extend_interval_seeded () =
  for seed = 0 to 59 do
    let rng = Random.State.make [| 0x17E; seed |] in
    let base = gen_interval_program rng in
    extend_one base (gen_interval_delta rng)
  done

let test_extend_corners () =
  List.iter
    (fun (base, delta) -> extend_one base delta)
    [
      (* empty delta: extend must reproduce the base grounding *)
      ("p(1). q(X) :- p(X), not s(X). s(2).", "");
      (* new facts feeding an existing join (augment path) *)
      ("e(1,2). e(2,3). path(X,Y) :- e(X,Y). path(X,Z) :- path(X,Y), e(Y,Z).",
       "e(3,4). e(4,5).");
      (* delta makes a previously-simplified negation derivable (recompute) *)
      ("p(1). p(2). q(X) :- p(X), not s(X).", "s(1).");
      (* delta touches a choice element's condition *)
      ("a(1). { h(X) : a(X) } 2.", "a(2). a(3).");
      (* delta touches an aggregate's condition *)
      ("p(1). p(2). r(1,1). g(X) :- p(X), #count { Y : r(X,Y) } >= 1.",
       "r(2,1). r(2,2).");
      (* delta adds rules over base predicates *)
      ("p(1). p(2). r(1,2).", "t2(X) :- r(X,Y), p(Y). t2(9) :- p(1).");
      (* delta rule derives into a base predicate, re-firing base rules *)
      ("p(1). q(X) :- p(X).", "p(X+1) :- p(X), X < 4.");
      (* weak constraints in base and delta *)
      (":~ p(X). [X@1, X] p(1).", "p(2). :~ p(X). [1@2, X]");
      (* delta with its own choice + aggregate over shared predicates *)
      ("n(1). n(2). big :- #count { X : n(X) } >= 3.",
       "n(3). { pick(X) : n(X) }.");
    ]

let test_extend_reuses () =
  let base =
    Asp.Parser.parse_program
      "p(1). p(2). q(X) :- p(X). e(1,2). e(2,3). path(X,Y) :- e(X,Y).\n\
       path(X,Z) :- path(X,Y), e(Y,Z)."
  in
  let st = Asp.Grounder.prepare base in
  let stats = Asp.Grounder.Stats.create () in
  let g =
    Asp.Grounder.extend ~stats st (Asp.Parser.parse_program "p(3). s(9).")
  in
  check Alcotest.bool "reused instances" true (stats.Asp.Grounder.Stats.reused_rules > 0);
  check Alcotest.bool "fresh instances" true (stats.Asp.Grounder.Stats.fresh_rules > 0);
  (* the delta-derived instance is present *)
  let has_q3 =
    List.exists
      (function
        | Asp.Ground.Gfact a | Asp.Ground.Grule { head = a; _ } ->
            Asp.Atom.to_string a = "q(3)"
        | _ -> false)
      g.Asp.Ground.rules
  in
  check Alcotest.bool "q(3) derived from the delta" true has_q3;
  (* untouched recursive instances were not re-derived: the path rules'
     signatures gained no atoms, so all their instances count as reused *)
  check Alcotest.bool "universe grew" true
    (Asp.Ground.atom_count g
    > Asp.Model.AtomSet.cardinal (Asp.Grounder.base_universe st))

(* ------------------------------------------------------------------ *)
(* extend_prepare: chained structural increments                       *)
(* ------------------------------------------------------------------ *)

(* Same comparison discipline as [extend_one]: universes and shows
   exact, rule lists as canonical sets (shared instances skip the
   cross-rule dedup). Each chained level is checked against a scratch
   grounding of the accumulated program, and the final warm state must
   still answer what-if extends exactly. *)
let extend_prepare_one base_src d1_src d2_src probe_src =
  let parse = Asp.Parser.parse_program in
  let base = parse base_src in
  let d1 = parse d1_src and d2 = parse d2_src and probe = parse probe_src in
  let compare_ground ctx ge gs =
    if not (Asp.Model.AtomSet.equal ge.Asp.Ground.universe gs.Asp.Ground.universe)
    then
      fail
        (Printf.sprintf "%s: universe diverged on:\n%s\n+ %s / %s" ctx base_src
           d1_src d2_src);
    check
      (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
      (ctx ^ " shows") gs.Asp.Ground.shows ge.Asp.Ground.shows;
    if canon ge.Asp.Ground.rules <> canon gs.Asp.Ground.rules then
      fail
        (Printf.sprintf
           "%s: rules diverged on:\n%s\n+ %s / %s\n--- incremental:\n%s\n--- \
            scratch:\n%s"
           ctx base_src d1_src d2_src (render ge) (render gs))
  in
  match Asp.Grounder.prepare ~max_atoms base with
  | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) -> ()
  | st0 -> (
      let step ctx st dp accum =
        let inc =
          match Asp.Grounder.extend_prepare st dp with
          | st' -> Ok st'
          | exception Asp.Grounder.Unsafe _ -> Error Unsafe
          | exception Asp.Grounder.Overflow _ -> Error Overflow
        in
        match (inc, run_new accum) with
        | Ok st', Grounded gs ->
            compare_ground ctx (Asp.Grounder.base st') gs;
            Some st'
        | Error Unsafe, Unsafe | Error Overflow, Overflow -> None
        | Ok _, o ->
            fail
              (Printf.sprintf "%s: scratch %s where extend_prepare grounded"
                 ctx (outcome_name o))
        | Error e, o ->
            fail
              (Printf.sprintf "%s: extend_prepare %s vs scratch %s" ctx
                 (outcome_name (match e with Unsafe -> Unsafe | _ -> Overflow))
                 (outcome_name o))
      in
      let acc1 = Asp.Program.append base d1 in
      match step "level 1" st0 d1 acc1 with
      | None -> ()
      | Some st1 -> (
          let acc2 = Asp.Program.append acc1 d2 in
          match step "level 2" st1 d2 acc2 with
          | None -> ()
          | Some st2 -> (
              let acc3 = Asp.Program.append acc2 probe in
              let ext =
                match Asp.Grounder.extend st2 probe with
                | g -> Grounded g
                | exception Asp.Grounder.Unsafe _ -> Unsafe
                | exception Asp.Grounder.Overflow _ -> Overflow
              in
              match (ext, run_new acc3) with
              | Grounded ge, Grounded gs -> compare_ground "probe" ge gs
              | Unsafe, Unsafe | Overflow, Overflow -> ()
              | e, s ->
                  fail
                    (Printf.sprintf "probe divergence: extend %s, scratch %s"
                       (outcome_name e) (outcome_name s)))))

let test_extend_prepare_seeded () =
  for seed = 0 to 79 do
    let rng = Random.State.make [| 0x1CE; seed |] in
    let base = gen_program rng in
    let d1 = gen_delta rng and d2 = gen_delta rng and probe = gen_delta rng in
    extend_prepare_one base d1 d2 probe
  done

let test_extend_prepare_corners () =
  List.iter
    (fun (b, d1, d2, p) -> extend_prepare_one b d1 d2 p)
    [
      (* negation re-simplified at both levels *)
      ("p(1). q(X) :- p(X), not s(X).", "s(1).", "p(2). p(3).", "s(2).");
      (* recursion fed level by level, cyclic probe *)
      ( "e(1,2). path(X,Y) :- e(X,Y). path(X,Z) :- path(X,Y), e(Y,Z).",
        "e(2,3).",
        "e(3,4).",
        "e(4,1)." );
      (* choice condition growing, aggregate added mid-chain *)
      ( "a(1). { h(X) : a(X) } 2.",
        "a(2).",
        "big :- #count { X : a(X) } >= 2.",
        "a(3)." );
      (* empty increments chain without disturbing warm state *)
      ("p(1). q(X) :- p(X).", "", "q2(X) :- q(X).", "p(2).");
      (* delta rules deriving into base predicates at each level *)
      ("p(1). q(X) :- p(X).", "p(X+1) :- p(X), X < 3.", "r(X) :- q(X).",
       "p(7).");
    ]

(* ------------------------------------------------------------------ *)
(* Parallel grounding: bit-for-bit vs sequential                        *)
(* ------------------------------------------------------------------ *)

(* [min_items:1] forces every multi-item fixpoint round through the
   domain pool, so the partition/merge path is exercised across the whole
   corpus rather than only on wide rounds. The contract is exact: the
   parallel grounding is the same Ground.t, bit for bit. *)
let par = Engine.Pool.grounder_par ~min_items:1 ()

let run_par p =
  match Asp.Grounder.ground ~max_atoms ~par p with
  | g -> Grounded g
  | exception Asp.Grounder.Unsafe _ -> Unsafe
  | exception Asp.Grounder.Overflow _ -> Overflow

let diff_one_par src =
  let p = Asp.Parser.parse_program src in
  match (run_par p, run_new p) with
  | Grounded ga, Grounded gb ->
      if not (Asp.Ground.equal ga gb) then
        fail
          (Printf.sprintf
             "parallel grounding diverged on program:\n%s\n--- parallel:\n\
              %s\n--- sequential:\n%s"
             src (render ga) (render gb))
  | Unsafe, Unsafe | Overflow, Overflow -> ()
  | a, b ->
      fail
        (Printf.sprintf
           "parallel outcome divergence on program:\n%s\n  parallel: %s\n\
           \  sequential: %s"
           src (outcome_name a) (outcome_name b))

let test_par_seeded () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x96D; seed |] in
    diff_one_par (gen_program rng)
  done

let test_par_corners () = List.iter diff_one_par corners

(* prepare/extend under the pool: base grounding and every extension stay
   bit-for-bit equal to their sequential counterparts *)
let test_par_prepare_extend () =
  for seed = 0 to 59 do
    let rng = Random.State.make [| 0xFA2; seed |] in
    let base = Asp.Parser.parse_program (gen_program rng) in
    let delta = Asp.Parser.parse_program (gen_delta rng) in
    let prep p =
      match Asp.Grounder.prepare ~max_atoms ?par:p base with
      | st -> Some st
      | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) -> None
    in
    match (prep (Some par), prep None) with
    | None, None -> ()
    | Some _, None | None, Some _ ->
        fail "parallel prepare outcome diverged from sequential"
    | Some stp, Some sts -> (
        if
          not
            (Asp.Ground.equal (Asp.Grounder.base stp) (Asp.Grounder.base sts))
        then fail "parallel prepare grounding diverged from sequential";
        let ext st p =
          match Asp.Grounder.extend ?par:p st delta with
          | g -> Grounded g
          | exception Asp.Grounder.Unsafe _ -> Unsafe
          | exception Asp.Grounder.Overflow _ -> Overflow
        in
        match (ext stp (Some par), ext sts None) with
        | Grounded ge, Grounded gs ->
            if not (Asp.Ground.equal ge gs) then
              fail "parallel extend diverged from sequential"
        | Unsafe, Unsafe | Overflow, Overflow -> ()
        | e, s ->
            fail
              (Printf.sprintf "parallel extend outcome %s vs sequential %s"
                 (outcome_name e) (outcome_name s)))
  done

(* ------------------------------------------------------------------ *)
(* Compiled increments: a job solves only its delta                    *)
(* ------------------------------------------------------------------ *)

(* The job path — [Grounder.increment], [Grounder.compile] against the
   base's compiled form, [Solver.solve_interned] — against solving the
   scratch grounding of base + delta: models, costs and rejections
   bit-for-bit. Grounding failures must agree in kind. *)
type solved = Solved of Test_solver_diff.outcome | Failed of string

let solved f =
  match Test_solver_diff.run f with
  | o -> Solved o
  | exception Asp.Grounder.Unsafe _ -> Failed "Unsafe"
  | exception Asp.Grounder.Overflow _ -> Failed "Overflow"

let pp_solved = function
  | Solved o -> Test_solver_diff.pp_outcome o
  | Failed k -> k

let increment_solve ?limit ~optimal prep delta =
  fst
    (Asp.Solver.solve_interned ?limit ~optimal
       (Asp.Grounder.compile (Asp.Grounder.increment prep delta)))

let scratch_solve ?limit ~optimal base delta =
  let g = Asp.Grounder.ground ~max_atoms (Asp.Program.append base delta) in
  if optimal then Asp.Solver.solve_optimal g else Asp.Solver.solve ?limit g

let compare_increment ?(limits = []) ~what base_src delta_src prep base delta =
  List.iter
    (fun (limit, optimal) ->
      let inc = solved (fun () -> increment_solve ?limit ~optimal prep delta) in
      let scr = solved (fun () -> scratch_solve ?limit ~optimal base delta) in
      let agree =
        match (inc, scr) with
        | Solved a, Solved b -> Test_solver_diff.outcomes_agree a b
        | Failed a, Failed b -> a = b
        | _ -> false
      in
      if not agree then
        fail
          (Printf.sprintf
             "%s: compiled increment diverged (limit %s, optimal %b) on:\n\
              %s\n+ delta:\n%s\n  increment: %s\n  scratch: %s"
             what
             (match limit with Some l -> string_of_int l | None -> "none")
             optimal base_src delta_src (pp_solved inc) (pp_solved scr)))
    ([ (None, false); (None, true) ]
    @ List.map (fun l -> (Some l, false)) limits)

let compiled_one ?limits base_src delta_src =
  let base = Asp.Parser.parse_program base_src in
  let delta = Asp.Parser.parse_program delta_src in
  match Asp.Grounder.prepare ~max_atoms base with
  | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) -> ()
  | prep ->
      compare_increment ?limits ~what:"program" base_src delta_src prep base
        delta

let test_compiled_seeded () =
  for seed = 0 to 119 do
    let rng = Random.State.make [| 0xE7E; seed |] in
    let base = gen_program rng in
    let delta = gen_delta rng in
    compiled_one base delta
  done

(* choice-free, aggregate-free programs with negation: a base the cheap
   tier evaluates once, so the increment's perfect model is re-evaluated
   in its cone only (or found to hold a negative loop) *)
let gen_stratified rng =
  let buf = Buffer.create 256 in
  gen_facts rng buf (3 + Random.State.int rng 4);
  for _ = 1 to 2 + Random.State.int rng 5 do
    gen_rule rng buf
  done;
  if Random.State.bool rng then
    Buffer.add_string buf
      (Printf.sprintf ":- %s(X), not %s(X).\n"
         upreds.(Random.State.int rng 3)
         upreds.(Random.State.int rng 3));
  Buffer.contents buf

let gen_stratified_delta rng =
  let buf = Buffer.create 128 in
  gen_facts rng buf (1 + Random.State.int rng 3);
  for _ = 1 to Random.State.int rng 3 do
    gen_rule rng buf
  done;
  Buffer.contents buf

let test_compiled_stratified () =
  let evaluated = ref 0 in
  for seed = 0 to 199 do
    let rng = Random.State.make [| 0x5CC; seed |] in
    let base = gen_stratified rng in
    let delta = gen_stratified_delta rng in
    compiled_one base delta;
    match Asp.Grounder.prepare ~max_atoms (Asp.Parser.parse_program base) with
    | prep ->
        if (Asp.Grounder.compiled_base prep).Asp.Interned.evaluation <> None
        then incr evaluated
    | exception (Asp.Grounder.Unsafe _ | Asp.Grounder.Overflow _) -> ()
  done;
  (* the corpus reaches the evaluated-base path, not only its fallbacks *)
  if !evaluated < 100 then
    Alcotest.failf "only %d of 200 bases were evaluated" !evaluated

let test_compiled_corners () =
  List.iter
    (fun (base, delta) -> compiled_one base delta)
    [
      ("p(1). q(X) :- p(X), not s(X). s(2).", "");
      ("e(1,2). e(2,3). path(X,Y) :- e(X,Y). path(X,Z) :- path(X,Y), e(Y,Z).",
       "e(3,4). e(4,5).");
      ("a(1). { h(X) : a(X) } 2.", "a(2). a(3).");
      ("p(1). p(2). r(1,1). g(X) :- p(X), #count { Y : r(X,Y) } >= 1.",
       "r(2,1). r(2,2).");
      ("p(1). q(X) :- p(X).", "p(X+1) :- p(X), X < 4.");
      (":~ p(X). [X@1, X] p(1).", "p(2). :~ p(X). [1@2, X]");
      ("n(1). n(2). big :- #count { X : n(X) } >= 3.",
       "n(3). { pick(X) : n(X) }.");
    ];
  (* the delta's atoms sort between base atoms: appended ids, canonical
     model order *)
  compiled_one ~limits:[ 1; 2; 3 ]
    "p(1). p(3). p(5). q(X) :- p(X). { c(X) : q(X) }."
    "p(2). p(4).";
  (* a negated signature gains atoms: the base rule is re-instantiated
     and its base instances dropped from the compiled form *)
  let base = "p(1). p(2). p(3). q(X) :- p(X), not s(X). r(X) :- q(X)." in
  let delta = "s(1). s(3)." in
  compiled_one base delta;
  let inc =
    Asp.Grounder.increment
      (Asp.Grounder.prepare (Asp.Parser.parse_program base))
      (Asp.Parser.parse_program delta)
  in
  check (Alcotest.list Alcotest.int) "re-instantiated base rule" [ 3 ]
    (Asp.Grounder.reinstantiated inc);
  check Alcotest.int "its three instances and the delta's two facts" 5
    (List.length (Asp.Grounder.fresh_instances inc));
  (* a rule instance that was a fact is re-instantiated: the dropped
     fact seeds the cone, unless another rule states it too *)
  compiled_one "a(1). a(2). b :- not c. d(X) :- a(X), b." "c.";
  compiled_one "a(1). a(2). b. b :- not c. d(X) :- a(X), b." "c.";
  (* several stable models, with and without a limit *)
  compiled_one ~limits:[ 1; 2; 3 ] "a(1). a(3). { h(X) : a(X) }."
    "a(2). b(X) :- h(X).";
  (* a negative loop sends the solve to CDNL *)
  let base = "n(1). n(2). c :- a(1)." in
  let delta = "a(X) :- n(X), not b(X). b(X) :- n(X), not a(X)." in
  compiled_one base delta;
  let prep = Asp.Grounder.prepare (Asp.Parser.parse_program base) in
  let _, stats =
    Asp.Solver.solve_interned ~optimal:false
      (Asp.Grounder.compile
         (Asp.Grounder.increment prep (Asp.Parser.parse_program delta)))
  in
  check Alcotest.bool "negative loop solved by CDNL" false
    stats.Asp.Solver.Stats.cheap

(* the deltas of the three what-if backends, as their jobs solve them *)
let test_compiled_whatif () =
  List.iter
    (fun (what, (spec : Engine.Job.spec), deltas) ->
      let prep = Asp.Grounder.prepare spec.Engine.Job.base in
      List.iter
        (fun d ->
          compare_increment ~what ("<" ^ what ^ " base>")
            (Engine.Delta.label d) prep spec.Engine.Job.base
            (spec.Engine.Job.compile d))
        deltas)
    (Test_asp.whatif_backends ())

let suites =
  [
    ( "asp.grounder_diff",
      [
        Alcotest.test_case "200 seeded random programs" `Quick test_diff_seeded;
        Alcotest.test_case "builtin-heavy: 100 seeded programs" `Quick
          test_diff_builtin_seeded;
        Alcotest.test_case "interval: 100 seeded programs" `Quick
          test_diff_interval_seeded;
        Alcotest.test_case "corner programs" `Quick test_diff_corners;
        Alcotest.test_case "ordered: 200 seeded random programs" `Quick
          test_ordered_seeded;
        Alcotest.test_case "ordered: corner programs" `Quick
          test_ordered_corners;
        Alcotest.test_case "ordered: reorders and stays exact" `Quick
          test_ordered_reorders;
        Alcotest.test_case "ordered: prepare/extend" `Quick
          test_ordered_prepare_extend;
        Alcotest.test_case "extend vs scratch (120 seeded)" `Quick
          test_extend_seeded;
        Alcotest.test_case "extend vs scratch (corners)" `Quick
          test_extend_corners;
        Alcotest.test_case "extend vs scratch (60 builtin-heavy)" `Quick
          test_extend_builtin_seeded;
        Alcotest.test_case "extend vs scratch (60 interval)" `Quick
          test_extend_interval_seeded;
        Alcotest.test_case "parallel: 200 seeded bit-for-bit" `Quick
          test_par_seeded;
        Alcotest.test_case "parallel: corner programs" `Quick test_par_corners;
        Alcotest.test_case "parallel: prepare/extend (60 seeded)" `Quick
          test_par_prepare_extend;
        Alcotest.test_case "extend reuses base instances" `Quick
          test_extend_reuses;
        Alcotest.test_case "extend_prepare chains vs scratch (80 seeded)"
          `Quick test_extend_prepare_seeded;
        Alcotest.test_case "extend_prepare chains vs scratch (corners)" `Quick
          test_extend_prepare_corners;
        Alcotest.test_case "compiled increment vs scratch (120 seeded)"
          `Quick test_compiled_seeded;
        Alcotest.test_case "compiled increment vs scratch (corners)" `Quick
          test_compiled_corners;
        Alcotest.test_case "compiled increment vs scratch (200 stratified)"
          `Quick test_compiled_stratified;
        Alcotest.test_case "compiled increment vs scratch (what-if)" `Quick
          test_compiled_whatif;
      ] );
  ]

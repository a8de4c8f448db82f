(* Propagation-only tier: programs whose stable models follow from
   closures, with no CDNL machinery (completion clauses, VSIDS, watches).
   Two fragments, both without aggregates:

   Choice-free programs are solved by evaluating their perfect model.
   The strata are the strongly connected components of the atom
   dependency graph (edges from a head to its positive and negative body
   atoms). When no negative body atom shares its head's component, the
   ground program is locally stratified, and its perfect model is its
   unique stable model: evaluate the components callees first, each one
   a least fixpoint of the rules whose negative atoms are already decided
   false. Constraints are then checked on that single model. A negative
   edge inside a component (a negative loop such as [a :- not b.
   b :- not a.]) rejects to the full CDNL tier. A program without
   negation is the one-stratum case: one closure and no component pass.
   An extension of an evaluated base ({!evaluate}) re-evaluates only the
   cone of atoms downstream of what its increment changes ([cone_model]).

   Programs with choices must have no negation in rule bodies or choice
   guards, and no choice bounds. In that fragment a candidate is stable
   iff it is the least fixpoint of the definite rules over the facts plus
   a subset of *licensed* choice atoms — foundedness holds by
   construction, so the classifier is sound on non-tight programs too (a
   positive loop without external support simply never enters the
   closure).

   Classification of a program with choices runs a forcing fixpoint over
   two closures:
   [cf] (facts + forced choices — a lower bound on every model) and
   [cm] (additionally seeding every non-banned candidate — an upper
   bound). Every choice-element guard must be decided (inside [cf] or
   outside [cm]); every constraint must be dead, or have exactly one
   undecided literal that is a free choice atom, which the fixpoint
   forces in or out. Anything else — an undecided guard, a multi-literal
   pending constraint, a constraint pending on a derived atom, a banned
   atom still derivable — rejects to the full CDNL tier, which is always
   safe. A constraint with no pending literal left is violated in every
   model: unsat, proven without search.

   Solving is then direct choice expansion: DFS over the free atoms with
   an incremental closure (per-rule missing-premise counters, trail-based
   undo), deduplicating closures that coincide. *)

module Stats = Solver_stats

exception Full_tier
exception Done

let gate (p : Interned.t) =
  (not p.Interned.has_counts)
  && Array.for_all (fun (r : Interned.rule) -> Array.length r.Interned.neg = 0)
       p.Interned.rules
  && Array.for_all
       (fun (c : Interned.choice) ->
         c.Interned.lower = None
         && c.Interned.upper = None
         && Array.length c.Interned.cneg = 0
         && Array.for_all
              (fun (e : Interned.elem) -> Array.length e.Interned.egneg = 0)
              c.Interned.elems)
       p.Interned.choices

type csr = Interned.csr = { start : int array; items : int array }

let csr = Interned.csr

(* atom -> rules with that atom in the positive body, one entry per
   occurrence: a rule's missing-premise counter drops by one per entry,
   so a repeated premise counts as often as it occurs *)
let occurrences n (rules : Interned.rule array) =
  csr n (Array.length rules) (fun ri emit ->
      let pos = rules.(ri).Interned.pos in
      for j = 0 to Array.length pos - 1 do
        emit pos.(j) ri
      done)

let premises rules =
  Array.map (fun (r : Interned.rule) -> Array.length r.Interned.pos) rules

type plan = {
  cf : Bitset.t;  (* forced closure: a subset of every model *)
  free : int array;
      (* free choice atoms in {!Interned.canonical_order}: a limited
         expansion finds the same models under any numbering *)
  occ : csr;  (* {!occurrences} *)
  base_missing : int array;  (* rule -> total positive premises *)
  heads : int array;
}

let classify (p : Interned.t) =
  if not (gate p) then `Full
  else begin
    let n1 = max p.Interned.n_atoms 1 in
    let heads = Array.map (fun (r : Interned.rule) -> r.Interned.head) p.Interned.rules in
    let occ = occurrences p.Interned.n_atoms p.Interned.rules in
    let base_missing = premises p.Interned.rules in
    let closure seeds =
      let cur = Bitset.create n1 in
      let missing = Array.copy base_missing in
      let q = Queue.create () in
      let add a =
        if not (Bitset.get cur a) then begin
          Bitset.set cur a;
          Queue.add a q
        end
      in
      Array.iter add p.Interned.facts;
      List.iter add seeds;
      Array.iteri (fun ri m -> if m = 0 then add heads.(ri)) missing;
      while not (Queue.is_empty q) do
        let a = Queue.pop q in
        for k = occ.start.(a) to occ.start.(a + 1) - 1 do
          let ri = occ.items.(k) in
          missing.(ri) <- missing.(ri) - 1;
          if missing.(ri) = 0 then add heads.(ri)
        done
      done;
      cur
    in
    let candidates = Bitset.create n1 in
    Array.iter
      (fun (c : Interned.choice) ->
        Array.iter
          (fun (e : Interned.elem) -> Bitset.set candidates e.Interned.eatom)
          c.Interned.elems)
      p.Interned.choices;
    let chosen = ref [] in
    let chosen_b = Bitset.create n1 in
    let banned_b = Bitset.create n1 in
    try
      let unsat = ref false in
      let final_cf = ref (Bitset.create n1) in
      let final_free = ref (Bitset.create n1) in
      let continue = ref true in
      while !continue && not !unsat do
        continue := false;
        let cf = closure !chosen in
        let cand_seed = ref !chosen in
        Bitset.iter_true
          (fun a -> if not (Bitset.get banned_b a) then cand_seed := a :: !cand_seed)
          candidates;
        let cm = closure !cand_seed in
        (* a banned atom still derivable cannot be kept out by not
           choosing it: give up (the ban came from a constraint, so the
           full tier will handle it) *)
        Bitset.iter_true
          (fun b -> if Bitset.get cm b then raise Full_tier)
          banned_b;
        (* every guard must be decided at the fixpoint *)
        let free_b = Bitset.create n1 in
        Array.iter
          (fun (c : Interned.choice) ->
            Array.iter
              (fun (e : Interned.elem) ->
                let guard_in s =
                  Array.for_all (Bitset.get s) c.Interned.cpos
                  && Array.for_all (Bitset.get s) e.Interned.egpos
                in
                if guard_in cf then begin
                  let a = e.Interned.eatom in
                  if (not (Bitset.get cf a)) && not (Bitset.get banned_b a)
                  then Bitset.set free_b a
                end
                else if guard_in cm then raise Full_tier
                (* else: dead element, never licensed *))
              c.Interned.elems)
          p.Interned.choices;
        (* every constraint must be dead or force a single free atom *)
        Array.iter
          (fun (k : Interned.constr) ->
            if not !unsat then begin
              let dead = ref false in
              let pending = ref [] in
              Array.iter
                (fun a ->
                  if not (Bitset.get cm a) then dead := true
                  else if not (Bitset.get cf a) then
                    pending := (a, false) :: !pending)
                k.Interned.kpos;
              Array.iter
                (fun b ->
                  if Bitset.get cf b then dead := true
                  else if Bitset.get cm b then
                    pending := (b, true) :: !pending)
                k.Interned.kneg;
              if not !dead then
                match !pending with
                | [] -> unsat := true
                | [ (u, need_true) ] ->
                    if not (Bitset.get free_b u) then raise Full_tier;
                    if need_true then begin
                      if not (Bitset.get chosen_b u) then begin
                        Bitset.set chosen_b u;
                        chosen := u :: !chosen;
                        continue := true
                      end
                    end
                    else if not (Bitset.get banned_b u) then begin
                      Bitset.set banned_b u;
                      continue := true
                    end
                | _ :: _ :: _ -> raise Full_tier
            end)
          p.Interned.constraints;
        final_cf := cf;
        final_free := free_b
      done;
      if !unsat then `Unsat
      else begin
        let free = ref [] in
        Bitset.iter_true (fun a -> free := a :: !free) !final_free;
        `Plan
          {
            cf = !final_cf;
            free = Interned.canonical_order p (Array.of_list (List.rev !free));
            occ;
            base_missing;
            heads;
          }
      end
    with Full_tier -> `Full
  end

(* strongly connected components of [g], numbered in completion order so
   that every edge points to the same or a lower component: Tarjan with
   explicit stacks, since programs reach hundreds of thousands of atoms *)
let sccs n g =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let comp = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let calls = Array.make n 0 and cp = ref 0 in
  let cursor = Array.sub g.start 0 n in
  let next = ref 0 and n_comp = ref 0 in
  let visit v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack.(!sp) <- v;
    incr sp;
    calls.(!cp) <- v;
    incr cp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !cp > 0 do
        let v = calls.(!cp - 1) in
        let e = cursor.(v) in
        if e < g.start.(v + 1) then begin
          cursor.(v) <- e + 1;
          let w = g.items.(e) in
          if index.(w) < 0 then visit w
          else if comp.(w) < 0 then low.(v) <- Int.min low.(v) index.(w)
        end
        else begin
          decr cp;
          if low.(v) = index.(v) then begin
            let popped = ref (-1) in
            while !popped <> v do
              decr sp;
              popped := stack.(!sp);
              comp.(!popped) <- !n_comp
            done;
            incr n_comp
          end;
          if !cp > 0 then begin
            let u = calls.(!cp - 1) in
            low.(u) <- Int.min low.(u) low.(v)
          end
        end
      done
    end
  done;
  (comp, !n_comp)

let rec any_set cur atoms i =
  i < Array.length atoms
  && (Bitset.get cur atoms.(i) || any_set cur atoms (i + 1))

(* the perfect model of the facts and choice-free, aggregate-free rules
   over atoms [0, n); raises [Full_tier] when a negative body atom shares
   its head's component *)
let perfect_model_of n facts (rules : Interned.rule array) =
  let n_rules = Array.length rules in
  let occ = occurrences n rules in
  let missing = premises rules in
  (* a rule fires only once its stratum is reached and its negative
     atoms are decided false *)
  let live = Bytes.make n_rules '\000' in
  let cur = Bitset.create (max n 1) in
  let queue = Array.make n 0 and qh = ref 0 and qt = ref 0 in
  let add a =
    if not (Bitset.get cur a) then begin
      Bitset.set cur a;
      queue.(!qt) <- a;
      incr qt
    end
  in
  let enable ri =
    Bytes.set live ri '\001';
    if missing.(ri) = 0 then add rules.(ri).Interned.head
  in
  let close () =
    while !qh < !qt do
      let a = queue.(!qh) in
      incr qh;
      for k = occ.start.(a) to occ.start.(a + 1) - 1 do
        let ri = occ.items.(k) in
        missing.(ri) <- missing.(ri) - 1;
        if missing.(ri) = 0 && Bytes.get live ri = '\001' then
          add rules.(ri).Interned.head
      done
    done
  in
  Array.iter add facts;
  if Array.for_all (fun (r : Interned.rule) -> r.Interned.neg = [||]) rules
  then begin
    for ri = 0 to n_rules - 1 do
      enable ri
    done;
    close ()
  end
  else begin
    let comp, n_comp =
      sccs n
        (csr n n_rules (fun ri emit ->
             let { Interned.head; pos; neg; _ } = rules.(ri) in
             for j = 0 to Array.length pos - 1 do
               emit head pos.(j)
             done;
             for j = 0 to Array.length neg - 1 do
               emit head neg.(j)
             done))
    in
    Array.iter
      (fun { Interned.head; neg; _ } ->
        for j = 0 to Array.length neg - 1 do
          if comp.(neg.(j)) = comp.(head) then raise Full_tier
        done)
      rules;
    let strata =
      csr n_comp n_rules (fun ri emit ->
          emit comp.(rules.(ri).Interned.head) ri)
    in
    for c = 0 to n_comp - 1 do
      for k = strata.start.(c) to strata.start.(c + 1) - 1 do
        let ri = strata.items.(k) in
        if not (any_set cur rules.(ri).Interned.neg 0) then enable ri
      done;
      close ()
    done
  end;
  cur

let rec all_set cur atoms i =
  i >= Array.length atoms
  || (Bitset.get cur atoms.(i) && all_set cur atoms (i + 1))

let violated cur (k : Interned.constr) =
  all_set cur k.Interned.kpos 0 && not (any_set cur k.Interned.kneg 0)

let perfect_model (p : Interned.t) =
  perfect_model_of p.Interned.n_atoms p.Interned.facts p.Interned.rules

let evaluate (p : Interned.t) =
  if p.Interned.has_counts || p.Interned.choices <> [||] then p
  else
    match perfect_model p with
    | exception Full_tier -> p
    | model ->
        let n = p.Interned.n_atoms and rules = p.Interned.rules in
        let n_rules = Array.length rules in
        let users =
          csr n n_rules (fun ri emit ->
              let { Interned.pos; neg; _ } = rules.(ri) in
              Array.iter (fun a -> emit a ri) pos;
              Array.iter (fun a -> emit a ri) neg)
        in
        let defs = csr n n_rules (fun ri emit -> emit rules.(ri).Interned.head ri) in
        let facts = p.Interned.facts in
        let fact_defs =
          csr n (Array.length facts) (fun fi emit -> emit facts.(fi) fi)
        in
        {
          p with
          Interned.evaluation =
            Some
              {
                Interned.model;
                model_atoms = Interned.atoms_of_bitset p model;
                users;
                defs;
                fact_defs;
              };
        }

(* The perfect model of an extension of an evaluated base. Only the cone
   of what the increment changes can differ from the base's model: the
   heads of its fresh facts and rules and of the base facts and rules it
   drops, and everything downstream of them through the rules' bodies.
   Outside the cone the rules are the base's, so the base model holds
   there; no component mixes cone and non-cone atoms, since a component
   is downstream of each of its atoms. The cone's rules are evaluated on
   their own, with the atoms outside it fixed to the base model: the
   per-job work scales with the cone, not with the program. *)
let cone_model (p : Interned.t) (o : Interned.origin)
    (ev : Interned.evaluation) =
  let b = o.Interned.base in
  let nb = b.Interned.n_atoms in
  let rules = p.Interned.rules and facts = p.Interned.facts in
  let fresh_users = Hashtbl.create 16 and fresh_defs = Hashtbl.create 16 in
  for ri = o.Interned.first_fresh_rule to Array.length rules - 1 do
    let r = rules.(ri) in
    Hashtbl.add fresh_defs r.Interned.head ri;
    Array.iter (fun a -> Hashtbl.add fresh_users a ri) r.Interned.pos;
    Array.iter (fun a -> Hashtbl.add fresh_users a ri) r.Interned.neg
  done;
  let fresh_facts = Hashtbl.create 16 in
  for fi = o.Interned.first_fresh_fact to Array.length facts - 1 do
    Hashtbl.replace fresh_facts facts.(fi) ()
  done;
  let local = Hashtbl.create 64 and cone = ref [] and k = ref 0 in
  let queue = Queue.create () in
  let add a =
    if not (Hashtbl.mem local a) then begin
      Hashtbl.add local a !k;
      incr k;
      cone := a :: !cone;
      Queue.add a queue
    end
  in
  Bitset.iter_true (fun fi -> add b.Interned.facts.(fi)) o.Interned.dropped_facts;
  Bitset.iter_true
    (fun ri -> add b.Interned.rules.(ri).Interned.head)
    o.Interned.dropped_rules;
  for fi = o.Interned.first_fresh_fact to Array.length facts - 1 do
    add facts.(fi)
  done;
  for ri = o.Interned.first_fresh_rule to Array.length rules - 1 do
    add rules.(ri).Interned.head
  done;
  let kept_rule ri = not (Bitset.get o.Interned.dropped_rules ri) in
  while not (Queue.is_empty queue) do
    let a = Queue.pop queue in
    if a < nb then
      for j = ev.Interned.users.start.(a) to ev.Interned.users.start.(a + 1) - 1 do
        let ri = ev.Interned.users.items.(j) in
        if kept_rule ri then add b.Interned.rules.(ri).Interned.head
      done;
    List.iter
      (fun ri -> add rules.(ri).Interned.head)
      (Hashtbl.find_all fresh_users a)
  done;
  let atoms = Array.of_list (List.rev !cone) in
  (* outside the cone: the base model; the increment's atoms are all
     inside it or underivable *)
  let outside a = a < nb && Bitset.get ev.Interned.model a in
  let lfacts = ref [] and lrules = ref [] in
  let local_rule head (r : Interned.rule) =
    let dead = ref false in
    let keep value ids =
      Array.of_list
        (Array.fold_right
           (fun a acc ->
             match Hashtbl.find_opt local a with
             | Some l -> l :: acc
             | None ->
                 if outside a <> value then dead := true;
                 acc)
           ids [])
    in
    let pos = keep true r.Interned.pos and neg = keep false r.Interned.neg in
    if not !dead then
      if pos = [||] && neg = [||] then lfacts := head :: !lfacts
      else lrules := { r with Interned.head; pos; neg } :: !lrules
  in
  Array.iteri
    (fun l a ->
      if a < nb then begin
        let fd = ev.Interned.fact_defs in
        for j = fd.start.(a) to fd.start.(a + 1) - 1 do
          if not (Bitset.get o.Interned.dropped_facts fd.items.(j)) then
            lfacts := l :: !lfacts
        done;
        let d = ev.Interned.defs in
        for j = d.start.(a) to d.start.(a + 1) - 1 do
          let ri = d.items.(j) in
          if kept_rule ri then local_rule l b.Interned.rules.(ri)
        done
      end;
      if Hashtbl.mem fresh_facts a then lfacts := l :: !lfacts;
      List.iter
        (fun ri -> local_rule l rules.(ri))
        (Hashtbl.find_all fresh_defs a))
    atoms;
  let lm =
    perfect_model_of (Array.length atoms) (Array.of_list !lfacts)
      (Array.of_list !lrules)
  in
  let m = Bitset.extend ev.Interned.model p.Interned.n_atoms in
  let set = ref ev.Interned.model_atoms in
  Array.iteri
    (fun l a ->
      let was = outside a and is = Bitset.get lm l in
      if is then Bitset.set m a else Bitset.clear m a;
      if was && not is then set := Model.AtomSet.remove (Interned.atom p a) !set
      else if is && not was then set := Model.AtomSet.add (Interned.atom p a) !set)
    atoms;
  (m, !set)

(* choice-free programs are evaluated — an extension of an evaluated base
   only in its cone — and programs with choices classified *)
let decide (p : Interned.t) =
  if p.Interned.has_counts || p.Interned.choices <> [||] then classify p
  else
    let model () =
      match p.Interned.origin with
      | Some ({ Interned.base = { Interned.evaluation = Some ev; _ }; _ } as o)
        ->
          cone_model p o ev
      | _ ->
          let m = perfect_model p in
          (m, Interned.atoms_of_bitset p m)
    in
    match model () with
    | exception Full_tier -> `Full
    | m, atoms ->
        if Array.exists (violated m) p.Interned.constraints then `Unsat
        else `Model (m, atoms)

let eligible p =
  match decide p with `Full -> false | `Plan _ | `Model _ | `Unsat -> true

let expand ?limit ~stats (p : Interned.t) plan =
  let n1 = max p.Interned.n_atoms 1 in
  let occ = plan.occ in
  let missing = Array.copy plan.base_missing in
  Bitset.iter_true
    (fun a ->
      for k = occ.start.(a) to occ.start.(a + 1) - 1 do
        missing.(occ.items.(k)) <- missing.(occ.items.(k)) - 1
      done)
    plan.cf;
  let cur = Bitset.copy plan.cf in
  let trail = Array.make n1 0 in
  let sp = ref 0 in
  (* add one free atom and run the closure forward, using the trail
     segment itself as the work queue *)
  let add a =
    let qh = !sp in
    if not (Bitset.get cur a) then begin
      Bitset.set cur a;
      trail.(!sp) <- a;
      incr sp;
      stats.Stats.firings <- stats.Stats.firings + 1
    end;
    let i = ref qh in
    while !i < !sp do
      let x = trail.(!i) in
      incr i;
      for k = occ.start.(x) to occ.start.(x + 1) - 1 do
        let ri = occ.items.(k) in
        missing.(ri) <- missing.(ri) - 1;
        if missing.(ri) = 0 then begin
          let h = plan.heads.(ri) in
          if not (Bitset.get cur h) then begin
            Bitset.set cur h;
            trail.(!sp) <- h;
            incr sp;
            stats.Stats.firings <- stats.Stats.firings + 1
          end
        end
      done
    done
  in
  let undo mark =
    while !sp > mark do
      decr sp;
      let x = trail.(!sp) in
      Bitset.clear cur x;
      for k = occ.start.(x) to occ.start.(x + 1) - 1 do
        missing.(occ.items.(k)) <- missing.(occ.items.(k)) + 1
      done
    done
  in
  let models = ref [] in
  let seen : (Bitset.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let n_found = ref 0 in
  let record () =
    stats.Stats.leaves <- stats.Stats.leaves + 1;
    let key = Bitset.copy cur in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      stats.Stats.models <- stats.Stats.models + 1;
      models :=
        Model.make
          ~cost:(Interned.cost_of p key)
          (Interned.atoms_of_bitset p key)
        :: !models;
      incr n_found;
      match limit with Some l when !n_found >= l -> raise Done | _ -> ()
    end
  in
  let f = Array.length plan.free in
  let rec go i =
    if i = f then record ()
    else begin
      stats.Stats.guesses <- stats.Stats.guesses + 1;
      (* exclude first: small models first, like the kernel's false bias *)
      go (i + 1);
      let mark = !sp in
      add plan.free.(i);
      go (i + 1);
      undo mark
    end
  in
  (try go 0 with Done -> ());
  List.sort Model.compare !models

(* [None]: not in the fragment, fall through to full CDNL *)
let solve ?limit ~stats p =
  match decide p with
  | `Full -> None
  | `Unsat ->
      stats.Stats.cheap <- true;
      Some []
  | `Model (m, atoms) ->
      stats.Stats.cheap <- true;
      stats.Stats.leaves <- stats.Stats.leaves + 1;
      stats.Stats.models <- stats.Stats.models + 1;
      Some [ Model.make ~cost:(Interned.cost_of p m) atoms ]
  | `Plan plan ->
      stats.Stats.cheap <- true;
      Some (expand ?limit ~stats p plan)

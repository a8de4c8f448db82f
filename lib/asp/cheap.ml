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

(* compressed adjacency: row [v] is [items.(start.(v)) ..
   items.(start.(v + 1) - 1)] *)
type csr = { start : int array; items : int array }

(* [iter ri emit] calls [emit v x] once per entry [x] of row [v] that
   rule [ri] contributes *)
let csr n n_rules iter =
  let start = Array.make (n + 1) 0 in
  for ri = 0 to n_rules - 1 do
    iter ri (fun v _ -> start.(v + 1) <- start.(v + 1) + 1)
  done;
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let fill = Array.sub start 0 n in
  let items = Array.make start.(n) 0 in
  for ri = 0 to n_rules - 1 do
    iter ri (fun v x ->
        items.(fill.(v)) <- x;
        fill.(v) <- fill.(v) + 1)
  done;
  { start; items }

(* atom -> rules with that atom in the positive body, one entry per
   occurrence: a rule's missing-premise counter drops by one per entry,
   so a repeated premise counts as often as it occurs *)
let occurrences (p : Interned.t) =
  let rules = p.Interned.rules in
  csr p.Interned.n_atoms (Array.length rules) (fun ri emit ->
      let pos = rules.(ri).Interned.pos in
      for j = 0 to Array.length pos - 1 do
        emit pos.(j) ri
      done)

let premises (p : Interned.t) =
  Array.map (fun (r : Interned.rule) -> Array.length r.Interned.pos) p.Interned.rules

type plan = {
  cf : Bitset.t;  (* forced closure: a subset of every model *)
  free : int array;  (* free choice atoms, ascending *)
  occ : csr;  (* {!occurrences} *)
  base_missing : int array;  (* rule -> total positive premises *)
  heads : int array;
}

let classify (p : Interned.t) =
  if not (gate p) then `Full
  else begin
    let n1 = max p.Interned.n_atoms 1 in
    let heads = Array.map (fun (r : Interned.rule) -> r.Interned.head) p.Interned.rules in
    let occ = occurrences p in
    let base_missing = premises p in
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
            free = Array.of_list (List.rev !free);
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

(* the perfect model of a choice-free, aggregate-free program; raises
   [Full_tier] when a negative body atom shares its head's component *)
let perfect_model (p : Interned.t) =
  let n = p.Interned.n_atoms in
  let rules = p.Interned.rules in
  let n_rules = Array.length rules in
  let occ = occurrences p in
  let missing = premises p in
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
  Array.iter add p.Interned.facts;
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

(* choice-free programs are evaluated, programs with choices classified *)
let decide (p : Interned.t) =
  if p.Interned.has_counts || p.Interned.choices <> [||] then classify p
  else
    match perfect_model p with
    | exception Full_tier -> `Full
    | m ->
        if Array.exists (violated m) p.Interned.constraints then `Unsat
        else `Model m

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
  | `Model m ->
      stats.Stats.cheap <- true;
      stats.Stats.leaves <- stats.Stats.leaves + 1;
      stats.Stats.models <- stats.Stats.models + 1;
      let cost = Interned.cost_of p m in
      Some [ Model.make ~cost (Interned.atoms_of_bitset p m) ]
  | `Plan plan ->
      stats.Stats.cheap <- true;
      Some (expand ?limit ~stats p plan)

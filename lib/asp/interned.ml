type count_elem = { etuple : Term.t list; epos : int array; eneg : int array }

type count = {
  ckind : Lit.agg_kind;
  celems : count_elem array;
  cop : Lit.cmp;
  cbound : int;
}

type rule = { head : int; pos : int array; neg : int array; counts : int array }
type elem = { eatom : int; egpos : int array; egneg : int array }

type choice = {
  lower : int option;
  upper : int option;
  elems : elem array;
  cpos : int array;
  cneg : int array;
  ccounts : int array;
}

type constr = { kpos : int array; kneg : int array; kcounts : int array }

type weak = {
  wpos : int array;
  wneg : int array;
  wcounts : int array;
  weight : int;
  priority : int;
  terms : Term.t list;
}

type csr = { start : int array; items : int array }

(* [iter i emit] calls [emit v x] once per entry [x] of row [v] that item
   [i] contributes *)
let csr n n_items iter =
  let start = Array.make (n + 1) 0 in
  for i = 0 to n_items - 1 do
    iter i (fun v _ -> start.(v + 1) <- start.(v + 1) + 1)
  done;
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let fill = Array.sub start 0 n in
  let items = Array.make start.(n) 0 in
  for i = 0 to n_items - 1 do
    iter i (fun v x ->
        items.(fill.(v)) <- x;
        fill.(v) <- fill.(v) + 1)
  done;
  { start; items }

type evaluation = {
  model : Bitset.t;
  model_atoms : Model.AtomSet.t;
  users : csr;
  defs : csr;
  fact_defs : csr;
}

type t = {
  atoms : Atom.t array;
  appended_atoms : Atom.t array;
  index : int Atom.Tbl.t;
  appended : int Atom.Tbl.t;
  n_atoms : int;
  universe : Model.AtomSet.t;
  n_universe : int;
  n_base : int;
  facts : int array;
  rules : rule array;
  choices : choice array;
  constraints : constr array;
  weaks : weak array;
  counts : count array;
  has_counts : bool;
  has_negative_weight : bool;
  evaluation : evaluation option;
  origin : origin option;
}

and origin = {
  base : t;
  dropped_facts : Bitset.t;
  dropped_rules : Bitset.t;
  first_fresh_fact : int;
  first_fresh_rule : int;
}

(* The compiled arrays of one rule list, before assembly into a [t]. *)
type body = {
  b_facts : int array;
  b_rules : rule array;
  b_choices : choice array;
  b_constraints : constr array;
  b_weaks : weak array;
  b_counts : count array;
}

(* Compile [grs] with the atom numbering [id]; aggregate indices start at
   [count0], the size of the count table the result is appended to. *)
let compile_rules ~id ~count0 grs =
  let ids l = Array.of_list (List.map id l) in
  let counts_rev = ref [] in
  let n_counts = ref count0 in
  let compile_counts cs =
    Array.of_list
      (List.map
         (fun (c : Ground.gcount) ->
           let celems =
             Array.of_list
               (List.map
                  (fun (e : Ground.gcount_elem) ->
                    {
                      etuple = e.Ground.etuple;
                      epos = ids e.Ground.epos;
                      eneg = ids e.Ground.eneg;
                    })
                  c.Ground.celems)
           in
           let idx = !n_counts in
           incr n_counts;
           counts_rev :=
             {
               ckind = c.Ground.ckind;
               celems;
               cop = c.Ground.cop;
               cbound = c.Ground.cbound;
             }
             :: !counts_rev;
           idx)
         cs)
  in
  let facts = ref []
  and rules = ref []
  and choices = ref []
  and constraints = ref []
  and weaks = ref [] in
  List.iter
    (fun r ->
      match r with
      | Ground.Gfact a -> facts := id a :: !facts
      | Ground.Grule { head; pos; neg; counts } ->
          rules :=
            { head = id head; pos = ids pos; neg = ids neg;
              counts = compile_counts counts }
            :: !rules
      | Ground.Gchoice { lower; upper; elems; pos; neg; counts } ->
          choices :=
            {
              lower;
              upper;
              elems =
                Array.of_list
                  (List.map
                     (fun (e : Ground.gelem) ->
                       {
                         eatom = id e.Ground.gatom;
                         egpos = ids e.Ground.gpos;
                         egneg = ids e.Ground.gneg;
                       })
                     elems);
              cpos = ids pos;
              cneg = ids neg;
              ccounts = compile_counts counts;
            }
            :: !choices
      | Ground.Gconstraint { pos; neg; counts } ->
          constraints :=
            { kpos = ids pos; kneg = ids neg; kcounts = compile_counts counts }
            :: !constraints
      | Ground.Gweak { pos; neg; counts; weight; priority; terms } ->
          weaks :=
            {
              wpos = ids pos;
              wneg = ids neg;
              wcounts = compile_counts counts;
              weight;
              priority;
              terms;
            }
            :: !weaks)
    grs;
  let arr l = Array.of_list (List.rev l) in
  {
    b_facts = arr !facts;
    b_rules = arr !rules;
    b_choices = arr !choices;
    b_constraints = arr !constraints;
    b_weaks = arr !weaks;
    b_counts = arr !counts_rev;
  }

(* A growable atom numbering: ids from [first] on, in first-use order. *)
let numbering ~size ~lookup ~first =
  let table = Atom.Tbl.create size in
  let rev = ref [] and next = ref first in
  let id a =
    match lookup a with
    | Some i -> i
    | None -> (
        match Atom.Tbl.find_opt table a with
        | Some i -> i
        | None ->
            let i = !next in
            Atom.Tbl.replace table a i;
            rev := a :: !rev;
            incr next;
            i)
  in
  (table, id, fun () -> Array.of_list (List.rev !rev))

let assemble ?origin ~atoms ~appended_atoms ~index ~appended ~universe
    ~n_universe b =
  let n_base = Array.length atoms in
  let n_atoms = n_base + Array.length appended_atoms in
  {
    atoms;
    appended_atoms;
    index;
    appended;
    n_atoms;
    universe;
    n_universe;
    n_base;
    facts = b.b_facts;
    rules = b.b_rules;
    choices = b.b_choices;
    constraints = b.b_constraints;
    weaks = b.b_weaks;
    counts = b.b_counts;
    has_counts = b.b_counts <> [||];
    has_negative_weight = Array.exists (fun w -> w.weight < 0) b.b_weaks;
    evaluation = None;
    origin;
  }

let compile_list universe grs =
  let index, id, atoms =
    numbering ~size:1024 ~lookup:(fun _ -> None) ~first:0
  in
  (* seed from the universe: ids [0, n_universe) ascend in Atom.compare
     order, which [atoms_of_bitset] relies on *)
  Model.AtomSet.iter (fun a -> ignore (id a)) universe;
  let n_universe = Atom.Tbl.length index in
  let b = compile_rules ~id ~count0:0 grs in
  assemble ~atoms:(atoms ()) ~appended_atoms:[||] ~index
    ~appended:(Atom.Tbl.create 1) ~universe ~n_universe b

let compile (g : Ground.t) = compile_list g.Ground.universe g.Ground.rules

(* Where each part's rules start in the five rule arrays, plus one final
   row holding the totals: [offsets.(5 * i + kind)]. *)
type parts = { offsets : int array }

let kind = function
  | Ground.Gfact _ -> 0
  | Ground.Grule _ -> 1
  | Ground.Gchoice _ -> 2
  | Ground.Gconstraint _ -> 3
  | Ground.Gweak _ -> 4

let compile_parts universe groups =
  let n = Array.length groups in
  let offsets = Array.make (5 * (n + 1)) 0 in
  Array.iteri
    (fun i grs ->
      Array.blit offsets (5 * i) offsets (5 * (i + 1)) 5;
      List.iter
        (fun gr ->
          let k = (5 * (i + 1)) + kind gr in
          offsets.(k) <- offsets.(k) + 1)
        grs)
    groups;
  ( compile_list universe (List.concat (Array.to_list groups)),
    { offsets } )

(* [base]'s entries of one rule kind with the ranges of the dropped parts
   cut out, followed by [fresh] *)
let splice parts ~drop ~kind base fresh =
  let off i = parts.offsets.((5 * i) + kind) in
  match List.filter (fun i -> off (i + 1) > off i) drop with
  | [] -> if Array.length fresh = 0 then base else Array.append base fresh
  | drop ->
      let kept = ref [] and lo = ref 0 in
      List.iter
        (fun i ->
          kept := Array.sub base !lo (off i - !lo) :: !kept;
          lo := off (i + 1))
        drop;
      kept := fresh :: Array.sub base !lo (Array.length base - !lo) :: !kept;
      Array.concat (List.rev !kept)

let extend base parts ~drop ~atoms grs =
  if base.n_base <> base.n_atoms then
    invalid_arg "Interned.extend: the base is itself an extension";
  let appended, id, fresh_atoms =
    numbering ~size:64 ~lookup:(Atom.Tbl.find_opt base.index)
      ~first:base.n_atoms
  in
  List.iter (fun a -> ignore (id a)) atoms;
  let b = compile_rules ~id ~count0:(Array.length base.counts) grs in
  let splice kind base fresh = splice parts ~drop ~kind base fresh in
  let dropped kind n =
    let bits = Bitset.create n in
    List.iter
      (fun i ->
        for j = parts.offsets.((5 * i) + kind)
            to parts.offsets.((5 * (i + 1)) + kind) - 1 do
          Bitset.set bits j
        done)
      drop;
    bits
  in
  let facts = splice 0 base.facts b.b_facts in
  let rules = splice 1 base.rules b.b_rules in
  let origin =
    {
      base;
      dropped_facts = dropped 0 (Array.length base.facts);
      dropped_rules = dropped 1 (Array.length base.rules);
      first_fresh_fact = Array.length facts - Array.length b.b_facts;
      first_fresh_rule = Array.length rules - Array.length b.b_rules;
    }
  in
  assemble ~origin ~atoms:base.atoms ~appended_atoms:(fresh_atoms ())
    ~index:base.index ~appended ~universe:base.universe
    ~n_universe:base.n_universe
    {
      b_facts = facts;
      b_rules = rules;
      b_choices = splice 2 base.choices b.b_choices;
      b_constraints = splice 3 base.constraints b.b_constraints;
      b_weaks = splice 4 base.weaks b.b_weaks;
      b_counts =
        (if Array.length b.b_counts = 0 then base.counts
         else Array.append base.counts b.b_counts);
    }

let atom p i =
  if i < p.n_base then p.atoms.(i) else p.appended_atoms.(i - p.n_base)

let choice_atoms p =
  let b = Bitset.create p.n_atoms in
  Array.iter
    (fun c -> Array.iter (fun e -> Bitset.set b e.eatom) c.elems)
    p.choices;
  b

let derived_heads p =
  let b = Bitset.create p.n_atoms in
  Array.iter (fun a -> Bitset.set b a) p.facts;
  Array.iter (fun r -> Bitset.set b r.head) p.rules;
  b

let id p a =
  match Atom.Tbl.find_opt p.index a with
  | Some i -> i
  | None -> Atom.Tbl.find p.appended a

(* ids below [n_base] keep their order; an increment's atoms are merged
   in by Atom.compare (they are all universe atoms) *)
let canonical_order p ids =
  if p.n_base = p.n_atoms || Array.for_all (fun i -> i < p.n_base) ids then ids
  else begin
    let ids = Array.copy ids in
    Array.stable_sort (fun i j -> Atom.compare (atom p i) (atom p j)) ids;
    ids
  end

(* A stable model usually holds most of the universe, so it is built as
   the universe minus its unset atoms: [remove] copies only the path to
   each removed atom, and the model shares every other subtree with the
   universe (and with every model over the same prepared base). Sparse
   models are built by insertion. Atoms outside the universe are added. *)
let atoms_of_bitset p bits =
  let inside = ref 0 and outside = ref [] in
  Bitset.iter_true
    (fun i -> if i < p.n_universe then incr inside else outside := i :: !outside)
    bits;
  let acc =
    if 2 * !inside > p.n_universe then begin
      let acc = ref p.universe in
      for i = 0 to p.n_universe - 1 do
        if not (Bitset.get bits i) then
          acc := Model.AtomSet.remove p.atoms.(i) !acc
      done;
      !acc
    end
    else begin
      let acc = ref Model.AtomSet.empty in
      Bitset.iter_true
        (fun i ->
          if i < p.n_universe then acc := Model.AtomSet.add p.atoms.(i) !acc)
        bits;
      !acc
    end
  in
  List.fold_left (fun s i -> Model.AtomSet.add (atom p i) s) acc !outside

let all_true m ids = Array.for_all (fun i -> Bitset.get m i) ids
let none_true m ids = not (Array.exists (fun i -> Bitset.get m i) ids)

let eval_count _p m (c : count) =
  let tuples =
    Array.to_list c.celems
    |> List.filter_map (fun e ->
           if all_true m e.epos && none_true m e.eneg then Some e.etuple
           else None)
    |> List.sort_uniq (List.compare Term.compare)
  in
  let n =
    match c.ckind with
    | Lit.Cardinality -> List.length tuples
    | Lit.Summation ->
        List.fold_left
          (fun acc tuple ->
            match tuple with
            | { Term.node = Term.Int w; _ } :: _ -> acc + w
            | _ -> acc (* non-integer weights contribute 0, as in clingo *))
          0 tuples
  in
  match c.cop with
  | Lit.Eq -> n = c.cbound
  | Lit.Ne -> n <> c.cbound
  | Lit.Lt -> n < c.cbound
  | Lit.Le -> n <= c.cbound
  | Lit.Gt -> n > c.cbound
  | Lit.Ge -> n >= c.cbound

let counts_sat p m idxs =
  Array.for_all (fun i -> eval_count p m p.counts.(i)) idxs

let cost_of p m =
  let tuples = Hashtbl.create 16 in
  Array.iter
    (fun w ->
      if all_true m w.wpos && none_true m w.wneg && counts_sat p m w.wcounts
      then Hashtbl.replace tuples (w.priority, w.weight, w.terms) ())
    p.weaks;
  let per_level = Hashtbl.create 4 in
  Hashtbl.iter
    (fun (priority, weight, _) () ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt per_level priority) in
      Hashtbl.replace per_level priority (cur + weight))
    tuples;
  Hashtbl.fold (fun pr w acc -> (pr, w) :: acc) per_level []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare b a)

exception Unsafe of string
exception Overflow of string

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

module Stats = struct
  type t = {
    mutable passes : int;
    mutable firings : int;
    mutable probes : int;
    mutable fresh_rules : int;
    mutable reused_rules : int;
    mutable wall_s : float;
  }

  let create () =
    {
      passes = 0;
      firings = 0;
      probes = 0;
      fresh_rules = 0;
      reused_rules = 0;
      wall_s = 0.0;
    }

  let add ~into s =
    into.passes <- into.passes + s.passes;
    into.firings <- into.firings + s.firings;
    into.probes <- into.probes + s.probes;
    into.fresh_rules <- into.fresh_rules + s.fresh_rules;
    into.reused_rules <- into.reused_rules + s.reused_rules;
    into.wall_s <- into.wall_s +. s.wall_s

  let to_string s =
    Printf.sprintf
      "passes=%d firings=%d probes=%d fresh=%d reused=%d wall=%.3fs" s.passes
      s.firings s.probes s.fresh_rules s.reused_rules s.wall_s

  let pp ppf s = Format.pp_print_string ppf (to_string s)

  let to_json s =
    Json.Obj
      [
        ("passes", Json.Int s.passes);
        ("firings", Json.Int s.firings);
        ("probes", Json.Int s.probes);
        ("fresh_rules", Json.Int s.fresh_rules);
        ("reused_rules", Json.Int s.reused_rules);
        ("wall_s", Json.Float s.wall_s);
      ]
end

(* ------------------------------------------------------------------ *)
(* Parallel hook                                                       *)
(* ------------------------------------------------------------------ *)

(* [lib/asp] cannot depend on [lib/engine], so the fixpoint's parallel
   rounds are driven through an injected map: [pmap f n] must return
   [[| f 0; …; f (n-1) |]] (slots may be computed on any domain, results
   land by index). [Engine.Pool.map] is the production implementation.
   [min_items] gates spawning: rounds with fewer work items run inline,
   since domain spawn latency dwarfs small joins. *)
type par = { pmap : 'a. (int -> 'a) -> int -> 'a array; min_items : int }

(* ------------------------------------------------------------------ *)
(* Safety                                                              *)
(* ------------------------------------------------------------------ *)

let located r =
  match Rule.pos r with
  | Some p -> Rule.pos_to_string p ^ ": "
  | None -> ""

let check_rule r =
  match Safety.violations r with
  | [] -> ()
  | vs -> raise (Unsafe (located r ^ Safety.describe r vs))

(* ------------------------------------------------------------------ *)
(* Matching (shared with the phase-2 instantiator)                     *)
(* ------------------------------------------------------------------ *)

let rec unify subst pat gterm =
  let pat = Term.substitute subst pat in
  let pat = if Term.is_ground pat then Term.eval pat else pat in
  match pat.Term.node with
  | Term.Var v -> Some ((v, gterm) :: subst)
  | Term.Func (f, args) -> (
      match gterm.Term.node with
      | Term.Func (g, gargs)
        when String.equal f g && List.length args = List.length gargs ->
          unify_all subst args gargs
      | Term.Const _ | Term.Int _ | Term.Str _ | Term.Var _ | Term.Func _ ->
          None)
  | Term.Const _ | Term.Int _ | Term.Str _ ->
      if Term.equal pat gterm then Some subst else None

and unify_all subst pats gterms =
  match pats, gterms with
  | [], [] -> Some subst
  | p :: ps, g :: gs -> (
      match unify subst p g with
      | Some subst -> unify_all subst ps gs
      | None -> None)
  | _ -> None

let unify_atom subst (pat : Atom.t) (ga : Atom.t) =
  if String.equal pat.Atom.pred ga.Atom.pred then
    unify_all subst pat.Atom.args ga.Atom.args
  else None

type builtin_step = Result of bool | Bind of string * Term.t | Stuck

let try_builtin subst (l, op, r) =
  let l' = Term.substitute subst l and r' = Term.substitute subst r in
  if Term.is_ground l' && Term.is_ground r' then Result (Lit.eval_cmp op l' r')
  else
    match op, l'.Term.node, r'.Term.node with
    | Lit.Eq, Term.Var v, _ when Term.is_ground r' -> Bind (v, Term.eval r')
    | Lit.Eq, _, Term.Var v when Term.is_ground l' -> Bind (v, Term.eval l')
    | _ -> Stuck

let rec discharge subst builtins =
  let progressed = ref false in
  let rec pass subst acc = function
    | [] -> Some (subst, List.rev acc)
    | b :: rest -> (
        match try_builtin subst b with
        | Result true ->
            progressed := true;
            pass subst acc rest
        | Result false -> None
        | Bind (v, t) ->
            progressed := true;
            pass ((v, t) :: subst) acc rest
        | Stuck -> pass subst (b :: acc) rest)
  in
  match pass subst [] builtins with
  | None -> None
  | Some (subst, []) -> Some (subst, [])
  | Some (subst, leftover) ->
      if !progressed then discharge subst leftover else Some (subst, leftover)

let positives lits =
  List.filter_map
    (function Lit.Pos a -> Some a | Lit.Neg _ | Lit.Cmp _ | Lit.Count _ -> None)
    lits

let negatives lits =
  List.filter_map
    (function Lit.Neg a -> Some a | Lit.Pos _ | Lit.Cmp _ | Lit.Count _ -> None)
    lits

let builtins_of lits =
  List.filter_map
    (function
      | Lit.Cmp (l, op, r) -> Some (l, op, r)
      | Lit.Pos _ | Lit.Neg _ | Lit.Count _ -> None)
    lits

let count_lits lits =
  List.filter_map
    (function
      | Lit.Count c -> Some c | Lit.Pos _ | Lit.Neg _ | Lit.Cmp _ -> None)
    lits

(* The ground argument positions of a substituted pattern, each with its
   evaluated key. [None] when some ground argument fails to evaluate — the
   caller must then fall back to the signature sweep so the error (if any)
   surfaces from per-candidate unification exactly as in the oracle. *)
let ground_keys (pat' : Atom.t) =
  let ok = ref true in
  let acc = ref [] in
  List.iteri
    (fun i t ->
      if !ok && Term.is_ground t then
        match Term.eval t with
        | k -> acc := (i, k) :: !acc
        | exception Invalid_argument _ -> ok := false)
    pat'.Atom.args;
  if !ok then Some (List.rev !acc) else None

(* Enumerate the substitutions satisfying the positive body + builtins of
   [lits]. [cands] supplies the candidate atoms for the [k]-th positive
   literal (already substituted) — the hook through which the callers plug
   in index probes, generation windows and the incremental new/old/full
   partition; [~pending] gives it the still-undischarged builtins under
   the current substitution, which range-aware indexes use to narrow
   integer-keyed scans. [perm] permutes the enumeration only: the [j]-th
   literal joined is the [perm.(j)]-th positive literal, and [cands] is
   still queried with the original position, so windowed callers stay
   exact. [err] is the located message for the (statically unreachable
   after {!check_rule}) leftover-builtin case. *)
let matches_gen ?perm ~cands ~err subst0 lits ~on_match =
  let pats = Array.of_list (positives lits) in
  let n = Array.length pats in
  let order =
    match perm with
    | Some p when Array.length p = n -> p
    | Some _ | None -> Array.init n (fun i -> i)
  in
  let builtins = builtins_of lits in
  let rec go j subst builtins =
    if j = n then
      match discharge subst builtins with
      | Some (subst, []) -> on_match subst
      | Some (_, _ :: _) -> raise (Unsafe (Lazy.force err))
      | None -> ()
    else
      match discharge subst builtins with
      | None -> ()
      | Some (subst, builtins) ->
          let k = order.(j) in
          let pat' = Atom.substitute subst pats.(k) in
          let pending () =
            List.map
              (fun (l, op, r) ->
                (Term.substitute subst l, op, Term.substitute subst r))
              builtins
          in
          List.iter
            (fun ga ->
              match unify_atom subst pat' ga with
              | Some subst -> go (j + 1) subst builtins
              | None -> ())
            (cands k pat' ~pending)
  in
  go 0 subst0 builtins

(* ------------------------------------------------------------------ *)
(* Phase 1: semi-naive universe fixpoint                               *)
(*                                                                     *)
(* Atoms carry the round (generation) in which they were derived.      *)
(* Candidate lists are consed newest-first, so they are sorted by      *)
(* non-increasing generation and a [lo..hi] generation window is a     *)
(* skip-prefix / take-while walk. Discrimination indexes are kept for  *)
(* EVERY argument position — a probe picks the smallest bucket among   *)
(* the pattern's ground positions. A [store] optionally layers over a  *)
(* frozen base store (the {!extend} overlay), whose atoms all count    *)
(* as generation 0.                                                    *)
(* ------------------------------------------------------------------ *)

(* Predicate strings are interned ({!Atom.make} routes them through
   [Term.intern_string]), so physical equality catches nearly every
   signature comparison, and the precomputed term hkeys replace deep
   polymorphic hashing. Profiles of the transitive-closure workloads put
   generic [caml_hash]/[compare_val] at ~2/3 of grounding time when
   these tables were polymorphic. *)

module SigTbl = Hashtbl.Make (struct
  type t = string * int (* pred, arity *)

  let equal (p1, a1) (p2, a2) = a1 = a2 && (p1 == p2 || String.equal p1 p2)
  let hash (p, a) = (String.hash p * 0x01000193) lxor a
end)

module PosIdxTbl = Hashtbl.Make (struct
  type t = string * int * int (* pred, arity, position (or mask) *)

  let equal (p1, a1, i1) (p2, a2, i2) =
    a1 = a2 && i1 = i2 && (p1 == p2 || String.equal p1 p2)

  let hash (p, a, i) = (((String.hash p * 0x01000193) lxor a) * 31) + i
end)

module PosTbl = Hashtbl.Make (struct
  type t = string * int * int * Term.t (* pred, arity, position, key *)

  let equal (p1, a1, i1, t1) (p2, a2, i2, t2) =
    a1 = a2 && i1 = i2 && Term.equal t1 t2 && String.equal p1 p2

  let hash (p, a, i, t) =
    ((((String.hash p * 0x01000193) lxor a) * 31) + i) lxor (Term.hash t * 0x9e3779b9)
end)

(* Composite-tier key tuples: ground terms at the masked positions. *)
module KeyTbl = Hashtbl.Make (struct
  type t = Term.t list

  let equal = List.equal Term.equal
  let hash = List.fold_left (fun h t -> (h * 0x100000001b3) lxor Term.hash t) 17
end)

module GrTbl = Hashtbl.Make (struct
  type t = Ground.grule

  let equal = Ground.equal_rule
  let hash = Ground.hash_rule
end)

module GeTbl = Hashtbl.Make (struct
  type t = Ground.gelem

  let equal = Ground.equal_elem
  let hash = Ground.hash_elem
end)

module CeTbl = Hashtbl.Make (struct
  type t = Ground.gcount_elem

  let equal = Ground.equal_celem
  let hash = Ground.hash_celem
end)

type bucket = { mutable b_len : int; mutable b_items : (Atom.t * int) list }

type store = {
  st_univ : int Atom.Tbl.t; (* atom -> generation *)
  st_by_sig : bucket SigTbl.t;
  st_by_pos : bucket PosTbl.t;
  mutable st_count : int; (* includes the base layer's count *)
  st_max : int;
  st_base : store option;
}

let new_store ~max_atoms base =
  (* an overlay usually holds a handful of atoms: start it small *)
  let size n = if Option.is_none base then n else 16 in
  {
    st_univ = Atom.Tbl.create (size 1024);
    st_by_sig = SigTbl.create (size 64);
    st_by_pos = PosTbl.create (size 256);
    st_count = (match base with Some b -> b.st_count | None -> 0);
    st_max = max_atoms;
    st_base = base;
  }

let store_mem st a =
  Atom.Tbl.mem st.st_univ a
  || match st.st_base with Some b -> Atom.Tbl.mem b.st_univ a | None -> false

let push_sig tbl key v =
  match SigTbl.find_opt tbl key with
  | Some b ->
      b.b_len <- b.b_len + 1;
      b.b_items <- v :: b.b_items
  | None -> SigTbl.add tbl key { b_len = 1; b_items = [ v ] }

let push_pos tbl key v =
  match PosTbl.find_opt tbl key with
  | Some b ->
      b.b_len <- b.b_len + 1;
      b.b_items <- v :: b.b_items
  | None -> PosTbl.add tbl key { b_len = 1; b_items = [ v ] }

let index_atom st a gen =
  push_sig st.st_by_sig (Atom.signature a) (a, gen);
  let ar = List.length a.Atom.args in
  List.iteri
    (fun i t -> push_pos st.st_by_pos (a.Atom.pred, ar, i, t) (a, gen))
    a.Atom.args

let add_atom st ~gen a ~on_new =
  let a = Atom.eval a in
  if not (Atom.is_ground a) then
    raise (Unsafe ("derived non-ground atom " ^ Atom.to_string a));
  if not (store_mem st a) then begin
    Atom.Tbl.replace st.st_univ a gen;
    st.st_count <- st.st_count + 1;
    if st.st_count > st.st_max then
      raise
        (Overflow (Printf.sprintf "atom universe exceeded %d atoms" st.st_max));
    index_atom st a gen;
    on_new a
  end

let empty_bucket = { b_len = 0; b_items = [] }

(* Candidates of this layer only: the smallest per-position bucket among
   the pattern's ground argument positions, the signature bucket when the
   pattern has none, and — mirroring the oracle's error surface — the
   signature bucket when any ground argument fails to evaluate. A missing
   bucket for an evaluated key means no stored atom can unify: empty. *)
let layer_cands st (stats : Stats.t) (pat' : Atom.t) =
  stats.Stats.probes <- stats.Stats.probes + 1;
  let of_sig () =
    match SigTbl.find_opt st.st_by_sig (Atom.signature pat') with
    | Some b -> b
    | None -> empty_bucket
  in
  match ground_keys pat' with
  | None -> (of_sig ()).b_items
  | Some [] -> (of_sig ()).b_items
  | Some keys ->
      let ar = List.length pat'.Atom.args in
      let best =
        List.fold_left
          (fun best (i, k) ->
            match best with
            | Some b when b.b_len = 0 -> best
            | _ -> (
                match PosTbl.find_opt st.st_by_pos (pat'.Atom.pred, ar, i, k) with
                | None -> Some empty_bucket
                | Some b -> (
                    match best with
                    | Some best when best.b_len <= b.b_len -> Some best
                    | _ -> Some b)))
          None keys
      in
      (match best with Some b -> b | None -> of_sig ()).b_items

(* Iterate atoms of st (plus its base layer when [lo = 0]) whose generation
   lies in [lo..hi]. *)
let iter_window st stats ~lo ~hi pat' f =
  let rec skip = function
    | (_, g) :: rest when g > hi -> skip rest
    | l -> take l
  and take = function
    | (a, g) :: rest when g >= lo ->
        f a;
        take rest
    | _ -> ()
  in
  skip (layer_cands st stats pat');
  if lo = 0 then
    match st.st_base with
    | Some b -> List.iter (fun (a, _) -> f a) (layer_cands b stats pat')
    | None -> ()

(* One head-derivation template per plain-rule head / choice element; a
   choice element's template joins body and condition positives flat (safe:
   [check_rule] has already rejected body builtins that only the condition
   could bind). *)
type template = {
  t_pats : Atom.t array;
  t_builtins : (Term.t * Lit.cmp * Term.t) list;
  t_head : Atom.t;
  t_err : string Lazy.t;
}

(* error messages are built only when raised: rendering a rule costs
   more than instantiating a small one *)
let unbound_err r =
  lazy
    (located r ^ "builtin comparison with unbound variables in: "
   ^ Rule.to_string r)

(* Returns the templates plus the semi-naive rule index: body-predicate
   signature -> (template, join position) pairs to re-fire when the
   signature gains atoms. *)
let build_templates rules =
  let ts = ref [] in
  let n = ref 0 in
  let index : (int * int) list SigTbl.t = SigTbl.create 32 in
  let add_template pats bs head err =
    let ti = !n in
    incr n;
    ts := { t_pats = Array.of_list pats; t_builtins = bs; t_head = head; t_err = err } :: !ts;
    List.iteri
      (fun pos pat ->
        let sg = Atom.signature pat in
        let cur = Option.value ~default:[] (SigTbl.find_opt index sg) in
        SigTbl.replace index sg ((ti, pos) :: cur))
      pats
  in
  List.iter
    (fun r ->
      match r with
      | Rule.Weak _ -> ()
      | Rule.Rule { head; body; _ } -> (
          let err = unbound_err r in
          let bp = positives body and bb = builtins_of body in
          match head with
          | Rule.Falsity -> ()
          | Rule.Head a -> add_template bp bb a err
          | Rule.Choice { elems; _ } ->
              List.iter
                (fun (e : Rule.choice_elem) ->
                  add_template
                    (bp @ positives e.cond)
                    (bb @ builtins_of e.cond)
                    e.atom err)
                elems))
    rules;
  (Array.of_list (List.rev !ts), index)

(* Fire one (template, delta-position) work item against a store that is
   frozen for the round. The join enumerates the delta literal FIRST (its
   window is one generation deep, so it is by far the most selective),
   then the remaining literals in original order — candidate windows are
   keyed by the ORIGINAL position, so the generation partition is exact
   under any enumeration order. *)
let fire st stats t ~round ~dpos ~on_match =
  let n = Array.length t.t_pats in
  let order =
    if dpos <= 0 then Array.init n (fun i -> i)
    else
      Array.init n (fun j ->
          if j = 0 then dpos else if j <= dpos then j - 1 else j)
  in
  let cands k pat' f =
    let lo, hi =
      if dpos < 0 then (0, max_int) (* naive: everything *)
      else if k = dpos then (round - 1, round - 1) (* the delta literal *)
      else if k < dpos then (0, round - 2) (* strictly older *)
      else (0, max_int) (* anything so far *)
    in
    iter_window st stats ~lo ~hi pat' f
  in
  let rec go j subst builtins =
    if j = n then
      match discharge subst builtins with
      | Some (subst, []) -> on_match subst
      | Some (_, _ :: _) -> raise (Unsafe (Lazy.force t.t_err))
      | None -> ()
    else
      match discharge subst builtins with
      | None -> ()
      | Some (subst, builtins) ->
          let k = order.(j) in
          let pat' = Atom.substitute subst t.t_pats.(k) in
          cands k pat' (fun ga ->
              match unify_atom subst pat' ga with
              | Some subst -> go (j + 1) subst builtins
              | None -> ())
  in
  go 0 [] t.t_builtins

(* Semi-naive driver with snapshot (BFS) rounds: the store is frozen while
   a round's work items fire — derived heads are buffered per item and
   committed sequentially in item order afterwards — so an atom's
   generation is exactly its derivation depth and every join result is
   found exactly once, at the round after its newest constituent atom was
   derived (leftmost-newest position). Freezing the store is also what
   makes the rounds parallelizable: items only read it, so [par] may fan
   them out across domains and the deterministic sequential commit keeps
   the result bit-for-bit equal to the inline path. *)
let run_fixpoint ?par st (stats : Stats.t) template entries_for ~initial =
  let added = ref [] in
  let run_round ~round items =
    stats.Stats.passes <- stats.Stats.passes + 1;
    let n = Array.length items in
    let fire_item i =
      let ti, dpos = items.(i) in
      let t = template ti in
      let local = Stats.create () in
      let heads = ref [] in
      fire st local t ~round ~dpos ~on_match:(fun subst ->
          local.Stats.firings <- local.Stats.firings + 1;
          heads := Atom.substitute subst t.t_head :: !heads);
      (local, List.rev !heads)
    in
    let results =
      match par with
      | Some p when n >= p.min_items && n > 1 -> p.pmap fire_item n
      | _ -> Array.init n fire_item
    in
    Array.iter
      (fun (local, heads) ->
        stats.Stats.firings <- stats.Stats.firings + local.Stats.firings;
        stats.Stats.probes <- stats.Stats.probes + local.Stats.probes;
        List.iter
          (fun a ->
            add_atom st ~gen:round a ~on_new:(fun a -> added := a :: !added))
          heads)
      results
  in
  run_round ~round:1
    (Array.of_list (List.map (fun ti -> (ti, -1)) initial));
  let round = ref 1 in
  while !added <> [] do
    incr round;
    let prev = List.rev !added in
    added := [];
    let seen_sig = SigTbl.create 16 in
    let items = ref [] in
    List.iter
      (fun a ->
        let sg = Atom.signature a in
        if not (SigTbl.mem seen_sig sg) then begin
          SigTbl.replace seen_sig sg ();
          List.iter (fun it -> items := it :: !items) (entries_for sg)
        end)
      prev;
    run_round ~round:!round (Array.of_list (List.rev !items))
  done

(* ------------------------------------------------------------------ *)
(* Phase 2: instantiation against a frozen, canonically ordered view   *)
(* ------------------------------------------------------------------ *)

(* A [view] answers candidate queries over an immutable universe with
   every bucket sorted ascending by [Atom.compare] — the canonical order
   shared with {!Naive_ground}, which is what makes the two grounders'
   outputs bit-for-bit comparable (any index is a superset filter: the
   subset enumerated in ascending order yields the oracle's match
   sequence).

   Three probe tiers, most selective first:
   - composite: patterns with >= 2 ground argument positions are answered
     from a lazily materialized (signature, position-mask) group table —
     one pass over the signature bucket the first time a mask is seen,
     O(1) after. The cache freezes when its view becomes shared state (a
     [prepared] may be extended from many domains concurrently); frozen
     misses fall through to the single-position tier.
   - positional: the smallest per-argument-position bucket.
   - range: a pattern whose argument is an unbound variable constrained by
     a pending [V < k]-style builtin scans only the integer keys inside
     the bound interval (sorted buckets merged, so order is preserved)
     instead of sweeping the whole signature. *)

type comp_cache = {
  mutable cc_frozen : bool;
  cc_tbl : Atom.t list KeyTbl.t PosIdxTbl.t;
      (* (pred, arity, mask) -> key tuple -> ascending bucket *)
}

type view = {
  v_sig : string * int -> Atom.t list;
  v_pos : string * int * int * Term.t -> (int * Atom.t list) option;
      (* (length, ascending bucket); None: no atom has that key there *)
  v_ints : string * int * int -> (bool * int list) option;
      (* (all keys at this position are ints, sorted distinct int keys) *)
  v_cache : comp_cache;
  v_shared : string * int * int -> Atom.t list KeyTbl.t option;
      (* composite groups of a frozen view this one agrees with on the
         signature, consulted before building into [v_cache] *)
}

let new_cache () = { cc_frozen = false; cc_tbl = PosIdxTbl.create 16 }
let no_shared _ = None

let tbl_view sigs poses ints =
  {
    v_sig =
      (fun k -> Option.value ~default:[] (SigTbl.find_opt sigs k));
    v_pos = (fun k -> PosTbl.find_opt poses k);
    v_ints = (fun k -> PosIdxTbl.find_opt ints k);
    v_cache = new_cache ();
    v_shared = no_shared;
  }

(* Sorted per-signature / per-position tables for the atoms of [st]'s own
   layer, plus the per-position integer-key summaries the range tier
   scans. *)
type tables = {
  tb_sigs : Atom.t list SigTbl.t;
  tb_poses : (int * Atom.t list) PosTbl.t;
  tb_ints : (bool * int list) PosIdxTbl.t;
}

let ints_of_poses poses =
  let ints = PosIdxTbl.create 16 in
  PosTbl.iter
    (fun (p, ar, i, key) _ ->
      let cur =
        Option.value ~default:(true, []) (PosIdxTbl.find_opt ints (p, ar, i))
      in
      let all_int, ks = cur in
      match key.Term.node with
      | Term.Int n -> PosIdxTbl.replace ints (p, ar, i) (all_int, n :: ks)
      | _ -> PosIdxTbl.replace ints (p, ar, i) (false, ks))
    poses;
  PosIdxTbl.iter
    (fun k (all_int, ks) ->
      PosIdxTbl.replace ints k (all_int, List.sort_uniq Int.compare ks))
    ints;
  ints

let sorted_tables st =
  let sigs = SigTbl.create (SigTbl.length st.st_by_sig) in
  let poses = PosTbl.create (PosTbl.length st.st_by_pos) in
  SigTbl.iter
    (fun key b ->
      let sorted = List.sort Atom.compare (List.map fst b.b_items) in
      SigTbl.replace sigs key sorted;
      (* cons in descending order so every positional bucket stays sorted *)
      List.iter
        (fun (a : Atom.t) ->
          let ar = List.length a.Atom.args in
          List.iteri
            (fun i t ->
              let pk = (a.Atom.pred, ar, i, t) in
              match PosTbl.find_opt poses pk with
              | Some (len, l) -> PosTbl.replace poses pk (len + 1, a :: l)
              | None -> PosTbl.add poses pk (1, [ a ]))
            a.Atom.args)
        (List.rev sorted))
    st.st_by_sig;
  { tb_sigs = sigs; tb_poses = poses; tb_ints = ints_of_poses poses }

let view_of_tables t = tbl_view t.tb_sigs t.tb_poses t.tb_ints

type snap = { sn_view : view; sn_mem : Atom.t -> bool }

let no_pending : (unit -> (Term.t * Lit.cmp * Term.t) list) = fun () -> []

(* Integer bounds on variable [v] implied by the pending builtins. An
   upper bound excludes every non-integer key (non-integers compare above
   all ints), so it is always safe to narrow on; a lower bound alone is
   only safe when every key at the position is an integer. *)
let int_bounds v pending =
  List.fold_left
    (fun (lo, hi) (l, op, r) ->
      let bound_of t =
        if Term.is_ground t then
          match (try Some (Term.eval t) with Invalid_argument _ -> None) with
          | Some { Term.node = Term.Int n; _ } -> Some n
          | _ -> None
        else None
      in
      let tighten_lo n = Some (match lo with Some l -> max l n | None -> n) in
      let tighten_hi n = Some (match hi with Some h -> min h n | None -> n) in
      match l.Term.node, r.Term.node with
      | Term.Var v', _ when String.equal v' v -> (
          match bound_of r, op with
          | Some n, Lit.Lt -> (lo, tighten_hi (n - 1))
          | Some n, Lit.Le -> (lo, tighten_hi n)
          | Some n, Lit.Gt -> (tighten_lo (n + 1), hi)
          | Some n, Lit.Ge -> (tighten_lo n, hi)
          | _ -> (lo, hi))
      | _, Term.Var v' when String.equal v' v -> (
          match bound_of l, op with
          | Some n, Lit.Gt -> (lo, tighten_hi (n - 1))
          | Some n, Lit.Ge -> (lo, tighten_hi n)
          | Some n, Lit.Lt -> (tighten_lo (n + 1), hi)
          | Some n, Lit.Le -> (tighten_lo n, hi)
          | _ -> (lo, hi))
      | _ -> (lo, hi))
    (None, None) pending

let range_cands view (pat' : Atom.t) pending =
  let ar = List.length pat'.Atom.args in
  let rec try_pos i = function
    | [] -> None
    | t :: rest -> (
        match t.Term.node with
        | Term.Var v -> (
            match view.v_ints (pat'.Atom.pred, ar, i) with
            | None -> try_pos (i + 1) rest
            | Some (all_int, keys) -> (
                match int_bounds v pending with
                | None, None -> try_pos (i + 1) rest
                | lo, None when not all_int ->
                    ignore lo;
                    try_pos (i + 1) rest
                | lo, hi ->
                    let lo = Option.value ~default:min_int lo in
                    let hi = Option.value ~default:max_int hi in
                    let buckets =
                      List.filter_map
                        (fun k ->
                          if k >= lo && k <= hi then
                            Option.map snd
                              (view.v_pos
                                 (pat'.Atom.pred, ar, i, Term.int k))
                          else None)
                        keys
                    in
                    Some
                      (List.fold_left
                         (fun acc l -> List.merge Atom.compare acc l)
                         [] buckets)))
        | _ -> try_pos (i + 1) rest)
  in
  try_pos 0 pat'.Atom.args

(* Composite tier: group the signature bucket by the key tuple at the
   pattern's ground positions, once per (signature, mask). *)
let comp_cands view (pat' : Atom.t) keys =
  let cache = view.v_cache in
  let ar = List.length pat'.Atom.args in
  let mask = List.fold_left (fun m (i, _) -> m lor (1 lsl i)) 0 keys in
  let ck = (pat'.Atom.pred, ar, mask) in
  let group =
    match PosIdxTbl.find_opt cache.cc_tbl ck with
    | Some g -> Some g
    | None -> (
        match view.v_shared ck with
        | Some g -> Some g
        | None ->
            if cache.cc_frozen then None
            else begin
              let g = KeyTbl.create 64 in
              List.iter
                (fun (a : Atom.t) ->
                  let key =
                    List.rev
                      (snd
                         (List.fold_left
                            (fun (i, acc) t ->
                              ( i + 1,
                                if mask land (1 lsl i) <> 0 then t :: acc
                                else acc ))
                            (0, []) a.Atom.args))
                  in
                  let cur = Option.value ~default:[] (KeyTbl.find_opt g key) in
                  KeyTbl.replace g key (a :: cur))
                (List.rev (view.v_sig (pat'.Atom.pred, ar)));
              PosIdxTbl.add cache.cc_tbl ck g;
              Some g
            end)
  in
  match group with
  | None -> None
  | Some g ->
      Some
        (Option.value ~default:[]
           (KeyTbl.find_opt g (List.map snd keys)))

let view_cands ?(pending = no_pending) view (stats : Stats.t) (pat' : Atom.t) =
  stats.Stats.probes <- stats.Stats.probes + 1;
  let of_sig () = view.v_sig (Atom.signature pat') in
  match ground_keys pat' with
  | None -> of_sig ()
  | Some [] -> (
      match range_cands view pat' (pending ()) with
      | Some cs -> cs
      | None -> of_sig ())
  | Some [ (i, k) ] -> (
      match view.v_pos (pat'.Atom.pred, List.length pat'.Atom.args, i, k) with
      | Some (_, l) -> l
      | None -> [])
  | Some keys -> (
      match comp_cands view pat' keys with
      | Some l -> l
      | None ->
          (* frozen cache miss: smallest single-position bucket *)
          let ar = List.length pat'.Atom.args in
          let best =
            List.fold_left
              (fun best (i, k) ->
                match best with
                | Some (blen, _) when blen = 0 -> best
                | _ -> (
                    match view.v_pos (pat'.Atom.pred, ar, i, k) with
                    | None -> Some (0, [])
                    | Some (len, l) -> (
                        match best with
                        | Some (blen, _) when blen <= len -> best
                        | _ -> Some (len, l))))
              None keys
          in
          (match best with Some (_, l) -> l | None -> of_sig ()))

(* Instantiate rule [r] against [snap], mirroring the oracle's phase 2
   modulo the discrimination indexes and hashed (instead of quadratic)
   dedup of aggregate / choice elements. [body_cands], when given,
   overrides candidate selection for the rule's outer body join only —
   {!extend} uses it to enumerate just the joins that involve new atoms.
   [perm] reorders the outer body join's enumeration (selectivity-first
   orderings from {!Analysis}); the matches are then replayed sorted by
   their chosen-atom tuple in original body order — exactly the order the
   in-order nested-loop join produces, since candidate buckets are sorted
   ascending and the substitution is a function of that tuple — so the
   emitted instances are bit-for-bit those of the unordered join. *)
let instantiate snap (stats : Stats.t) ?body_cands ?perm ~emit r =
  let rule_str = lazy (Rule.to_string r) in
  let err = unbound_err r in
  let default_cands _ pat' ~pending = view_cands ~pending snap.sn_view stats pat' in
  let body_cands = Option.value ~default:default_cands body_cands in
  let body_matches lits ~on_match =
    match perm with
    | None -> matches_gen ~cands:body_cands ~err [] lits ~on_match
    | Some _ ->
        let pats = positives lits in
        let batch = ref [] in
        matches_gen ?perm ~cands:body_cands ~err [] lits
          ~on_match:(fun subst ->
            let key =
              List.map (fun a -> Atom.eval (Atom.substitute subst a)) pats
            in
            batch := (key, subst) :: !batch);
        List.iter
          (fun (_, subst) -> on_match subst)
          (List.sort
             (fun (k1, _) (k2, _) -> List.compare Atom.compare k1 k2)
             !batch)
  in
  let simplify_negs negs =
    List.filter snap.sn_mem (List.map (fun a -> Atom.eval a) negs)
  in
  let ground_pos subst lits =
    List.map (fun a -> Atom.eval (Atom.substitute subst a)) (positives lits)
  in
  let ground_neg subst lits =
    simplify_negs (List.map (Atom.substitute subst) (negatives lits))
  in
  let ground_counts subst lits =
    List.map
      (fun (c : Lit.count) ->
        let cbound =
          match Term.eval_int (Term.substitute subst c.Lit.bound) with
          | Some n -> n
          | None ->
              raise
                (Unsafe
                   ("aggregate bound is not an integer in: "
                   ^ Lazy.force rule_str))
        in
        let celems = ref [] in
        let seen_ce = CeTbl.create 16 in
        matches_gen ~cands:default_cands ~err subst c.Lit.cond
          ~on_match:(fun subst' ->
            let ce =
              {
                Ground.etuple =
                  List.map
                    (fun t -> Term.eval (Term.substitute subst' t))
                    c.Lit.terms;
                epos = ground_pos subst' c.Lit.cond;
                eneg = ground_neg subst' c.Lit.cond;
              }
            in
            if not (CeTbl.mem seen_ce ce) then begin
              CeTbl.replace seen_ce ce ();
              celems := ce :: !celems
            end);
        {
          Ground.ckind = c.Lit.kind;
          celems = List.rev !celems;
          cop = c.Lit.op;
          cbound;
        })
      (count_lits lits)
  in
  match r with
  | Rule.Rule { head; body; _ } ->
      body_matches body ~on_match:(fun subst ->
          let pos = ground_pos subst body in
          let neg = ground_neg subst body in
          let counts = ground_counts subst body in
          match head with
          | Rule.Head a ->
              let head = Atom.eval (Atom.substitute subst a) in
              if pos = [] && neg = [] && counts = [] then
                emit (Ground.Gfact head)
              else emit (Ground.Grule { head; pos; neg; counts })
          | Rule.Falsity -> emit (Ground.Gconstraint { pos; neg; counts })
          | Rule.Choice { lower; upper; elems } ->
              let gelems = ref [] in
              let seen_ge = GeTbl.create 16 in
              List.iter
                (fun (e : Rule.choice_elem) ->
                  matches_gen ~cands:default_cands ~err subst e.cond
                    ~on_match:(fun subst' ->
                      let ge =
                        {
                          Ground.gatom =
                            Atom.eval (Atom.substitute subst' e.atom);
                          gpos = ground_pos subst' e.cond;
                          gneg = ground_neg subst' e.cond;
                        }
                      in
                      if not (GeTbl.mem seen_ge ge) then begin
                        GeTbl.replace seen_ge ge ();
                        gelems := ge :: !gelems
                      end))
                elems;
              emit
                (Ground.Gchoice
                   { lower; upper; elems = List.rev !gelems; pos; neg; counts }))
  | Rule.Weak { body; weight; priority; terms; _ } ->
      body_matches body ~on_match:(fun subst ->
          let pos = ground_pos subst body in
          let neg = ground_neg subst body in
          let counts = ground_counts subst body in
          let weight =
            match Term.eval_int (Term.substitute subst weight) with
            | Some w -> w
            | None ->
                raise
                  (Unsafe
                     ("weak constraint weight is not an integer: "
                     ^ Lazy.force rule_str))
          in
          let terms =
            List.map (fun t -> Term.eval (Term.substitute subst t)) terms
          in
          emit (Ground.Gweak { pos; neg; counts; weight; priority; terms }))

(* ------------------------------------------------------------------ *)
(* One-shot grounding                                                  *)
(* ------------------------------------------------------------------ *)

let all_indices n = List.init n (fun i -> i)

let phase1 ?par ~max_atoms stats p =
  List.iter check_rule (Program.rules p);
  let st = new_store ~max_atoms None in
  let templates, tindex = build_templates (Program.rules p) in
  let entries_for sg =
    Option.value ~default:[] (SigTbl.find_opt tindex sg)
  in
  run_fixpoint ?par st stats (Array.get templates) entries_for
    ~initial:(all_indices (Array.length templates));
  (st, templates, tindex)

(* one sort and a balanced build, instead of one rebalancing insertion
   per atom *)
let universe_of st =
  Model.AtomSet.of_list (Atom.Tbl.fold (fun a _ acc -> a :: acc) st.st_univ [])

let no_order : Rule.t -> int array option = fun _ -> None

let ground ?(max_atoms = 200_000) ?(order = no_order) ?par ?stats p =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let t0 = Unix.gettimeofday () in
  let st, _, _ = phase1 ?par ~max_atoms stats p in
  let tables = sorted_tables st in
  let snap =
    {
      sn_view = view_of_tables tables;
      sn_mem = (fun a -> Atom.Tbl.mem st.st_univ a);
    }
  in
  let seen = GrTbl.create 256 in
  let out = ref [] in
  let emit gr =
    if not (GrTbl.mem seen gr) then begin
      GrTbl.replace seen gr ();
      stats.Stats.fresh_rules <- stats.Stats.fresh_rules + 1;
      out := gr :: !out
    end
  in
  List.iter (fun r -> instantiate snap stats ?perm:(order r) ~emit r) (Program.rules p);
  let g =
    {
      Ground.rules = List.rev !out;
      universe = universe_of st;
      shows = Program.shows p;
    }
  in
  stats.Stats.wall_s <- stats.Stats.wall_s +. (Unix.gettimeofday () -. t0);
  g

(* ------------------------------------------------------------------ *)
(* Incremental grounding                                               *)
(* ------------------------------------------------------------------ *)

type rule_entry = {
  e_rule : Rule.t;
  e_pos_sigs : (string * int) array; (* positive body sigs, join order *)
  e_cond_sigs : (string * int) list; (* Deps.condition_signatures *)
  e_instances : Ground.grule list; (* base instances, emission order *)
  e_count : int; (* length of [e_instances] *)
}

type prepared = {
  p_program : Program.t;
  p_max_atoms : int;
  p_store : store; (* frozen after prepare; always single-layer *)
  p_tables : tables; (* sorted base candidate tables *)
  p_view : view;
  p_entries : rule_entry array;
  p_by_cond : int list SigTbl.t; (* condition sig -> entries, ascending *)
  p_by_pos : (int * int) list SigTbl.t;
      (* positive body sig -> (entry, body position), ascending *)
  p_instances : int; (* total of [e_count] *)
  p_templates : template array;
  p_tindex : (int * int) list SigTbl.t;
  p_universe : Model.AtomSet.t;
  p_rules : Ground.grule list; (* globally deduped, = [ground] output *)
  p_order : Rule.t -> int array option;
  p_compiled : Interned.t; (* the entries' instances, one part each *)
  p_parts : Interned.parts;
}

let entry r instances =
  {
    e_rule = r;
    e_pos_sigs = Array.of_list (Deps.positive_body_signatures r);
    e_cond_sigs = Deps.condition_signatures r;
    e_instances = instances;
    e_count = List.length instances;
  }

let instances ?body_cands snap stats perm r =
  let acc = ref [] in
  let emit gr =
    stats.Stats.fresh_rules <- stats.Stats.fresh_rules + 1;
    acc := gr :: !acc
  in
  instantiate snap stats ?body_cands ?perm ~emit r;
  List.rev !acc

(* Index the entries by signature, compile their instances and freeze
   the view: the state is shared and read-only from here on, and every
   increment reads it. The compiled form keeps each entry's instances
   (no cross-entry dedup) so that an increment can drop exactly the
   entries it re-instantiates. *)
let finish ~program ~max_atoms ~store ~tables ~view ~templates ~tindex ~order
    entries =
  let entries = Array.of_list entries in
  let by_cond = SigTbl.create 64 and by_pos = SigTbl.create 64 in
  let push tbl k v =
    SigTbl.replace tbl k
      (v :: Option.value ~default:[] (SigTbl.find_opt tbl k))
  in
  (* backwards, so every list comes out ascending *)
  for i = Array.length entries - 1 downto 0 do
    let e = entries.(i) in
    List.iter (fun sg -> push by_cond sg i) (List.sort_uniq compare e.e_cond_sigs);
    for j = Array.length e.e_pos_sigs - 1 downto 0 do
      push by_pos e.e_pos_sigs.(j) (i, j)
    done
  done;
  let seen = GrTbl.create 256 in
  let rules =
    List.concat_map
      (fun e ->
        List.filter
          (fun gr ->
            if GrTbl.mem seen gr then false
            else begin
              GrTbl.replace seen gr ();
              true
            end)
          e.e_instances)
      (Array.to_list entries)
  in
  let universe = universe_of store in
  let compiled, parts =
    Interned.compile_parts universe (Array.map (fun e -> e.e_instances) entries)
  in
  let compiled = Cheap.evaluate compiled in
  (* no further composite-mask materialization: concurrent increments
     read the cache *)
  view.v_cache.cc_frozen <- true;
  {
    p_program = program;
    p_max_atoms = max_atoms;
    p_store = store;
    p_tables = tables;
    p_view = view;
    p_entries = entries;
    p_by_cond = by_cond;
    p_by_pos = by_pos;
    p_instances = Array.fold_left (fun n e -> n + e.e_count) 0 entries;
    p_templates = templates;
    p_tindex = tindex;
    p_universe = universe;
    p_rules = rules;
    p_order = order;
    p_compiled = compiled;
    p_parts = parts;
  }

let timed (stats : Stats.t) f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  stats.Stats.wall_s <- stats.Stats.wall_s +. (Unix.gettimeofday () -. t0);
  r

let get_stats = function Some s -> s | None -> Stats.create ()

let prepare ?(max_atoms = 200_000) ?(order = no_order) ?par ?stats p =
  let stats = get_stats stats in
  timed stats @@ fun () ->
  let st, templates, tindex = phase1 ?par ~max_atoms stats p in
  let tables = sorted_tables st in
  let view = view_of_tables tables in
  let snap = { sn_view = view; sn_mem = (fun a -> Atom.Tbl.mem st.st_univ a) } in
  List.map (fun r -> entry r (instances snap stats (order r) r)) (Program.rules p)
  |> finish ~program:p ~max_atoms ~store:st ~tables ~view ~templates ~tindex
       ~order

let base p =
  { Ground.rules = p.p_rules; universe = p.p_universe; shows = Program.shows p.p_program }

let base_universe p = p.p_universe
let compiled_base p = p.p_compiled

(* Merge the overlay's sorted tables into (copies of) the base tables. *)
let merge_tables base overlay =
  let sigs = SigTbl.copy base.tb_sigs in
  SigTbl.iter
    (fun k nl ->
      let b = Option.value ~default:[] (SigTbl.find_opt sigs k) in
      SigTbl.replace sigs k (List.merge Atom.compare b nl))
    overlay.tb_sigs;
  let poses = PosTbl.copy base.tb_poses in
  PosTbl.iter
    (fun k (nlen, nl) ->
      match PosTbl.find_opt poses k with
      | Some (blen, bl) ->
          PosTbl.replace poses k (blen + nlen, List.merge Atom.compare bl nl)
      | None -> PosTbl.add poses k (nlen, nl))
    overlay.tb_poses;
  let ints = PosIdxTbl.copy base.tb_ints in
  PosIdxTbl.iter
    (fun k (nall, nks) ->
      match PosIdxTbl.find_opt ints k with
      | Some (ball, bks) ->
          PosIdxTbl.replace ints k
            (ball && nall, List.sort_uniq Int.compare (bks @ nks))
      | None -> PosIdxTbl.add ints k (nall, nks))
    overlay.tb_ints;
  { tb_sigs = sigs; tb_poses = poses; tb_ints = ints }

(* The base view with the overlay's atoms merged in key by key, on first
   use, into tables local to this view: nothing of the base is copied,
   and the base stays read-only. Composite groups of signatures the
   overlay leaves alone come from the base's frozen cache. *)
let overlay_view base overlay =
  let memo find add tbl k compute =
    match find tbl k with
    | Some v -> v
    | None ->
        let v = compute () in
        add tbl k v;
        v
  in
  let sigs = SigTbl.create 8 and poses = PosTbl.create 16 in
  let ints = PosIdxTbl.create 8 in
  {
    v_sig =
      (fun k ->
        match SigTbl.find_opt overlay.tb_sigs k with
        | None -> base.v_sig k
        | Some nl ->
            memo SigTbl.find_opt SigTbl.add sigs k (fun () ->
                List.merge Atom.compare (base.v_sig k) nl));
    v_pos =
      (fun k ->
        match (PosTbl.find_opt overlay.tb_poses k, base.v_pos k) with
        | None, b -> b
        | n, None -> n
        | Some (nlen, nl), Some (blen, bl) ->
            Some
              (memo PosTbl.find_opt PosTbl.add poses k (fun () ->
                   (blen + nlen, List.merge Atom.compare bl nl))));
    v_ints =
      (fun k ->
        match (PosIdxTbl.find_opt overlay.tb_ints k, base.v_ints k) with
        | None, b -> b
        | n, None -> n
        | Some (nall, nks), Some (ball, bks) ->
            Some
              (memo PosIdxTbl.find_opt PosIdxTbl.add ints k (fun () ->
                   (ball && nall, List.sort_uniq Int.compare (bks @ nks)))));
    v_cache = new_cache ();
    v_shared =
      (fun ((p, ar, _) as ck) ->
        if SigTbl.mem overlay.tb_sigs (p, ar) then None
        else PosIdxTbl.find_opt base.v_cache.cc_tbl ck);
  }

let overlay_phase1 ?par ~stats prep dp =
  List.iter check_rule (Program.rules dp);
  let st = new_store ~max_atoms:prep.p_max_atoms (Some prep.p_store) in
  let nbase = Array.length prep.p_templates in
  let dtemplates, dtindex = build_templates (Program.rules dp) in
  let template ti =
    if ti < nbase then prep.p_templates.(ti) else dtemplates.(ti - nbase)
  in
  let entries_for sg =
    let b = Option.value ~default:[] (SigTbl.find_opt prep.p_tindex sg) in
    match SigTbl.find_opt dtindex sg with
    | None -> b
    | Some d -> b @ List.map (fun (ti, pos) -> (ti + nbase, pos)) d
  in
  run_fixpoint ?par st stats template entries_for
    ~initial:
      (List.map (fun i -> i + nbase) (all_indices (Array.length dtemplates)));
  (st, dtemplates, dtindex)

type increment = {
  i_prep : prepared;
  i_delta : Program.t;
  i_store : store; (* the overlay: the atoms the delta adds *)
  i_templates : template array; (* the delta's templates *)
  i_dtindex : (int * int) list SigTbl.t; (* the delta's template index *)
  i_full : (tables * view) option; (* merged tables, when asked for *)
  i_changed : (int * bool * Ground.grule list) list;
  i_rules : (Rule.t * Ground.grule list) list; (* the delta's rules *)
  i_atoms : Atom.t list;
}

(* Overlay phase 1 closes the base universe under base + delta rules,
   starting from a naive pass over the delta's templates only (the base
   is already closed). Base rules are then classified by the signatures
   that gained atoms, found through the signature indexes:
   - a touched condition signature (negated body atom, aggregate or
     choice-element condition) can change the content of existing
     instances -> re-instantiate the rule against the full view;
   - touched positive body signatures only -> existing instances are
     unchanged (shared) and the only new instances are joins with at
     least one new atom: enumerate them delta-exactly per position (new
     at it, base-only strictly left, full right);
   - nothing touched -> share wholesale, without visiting the entry.
   Only reads the prepared state, so concurrent increments of one
   [prepared] are safe. [merged] materializes the full candidate tables
   (what {!extend_prepare} keeps); otherwise the full view overlays the
   base lazily. *)
let increment_with ?par ~stats ~merged prep dp =
  let st, dtemplates, dtindex = overlay_phase1 ?par ~stats prep dp in
  let ntables = sorted_tables st in
  let full =
    if merged then begin
      let t = merge_tables prep.p_tables ntables in
      Some (t, view_of_tables t)
    end
    else None
  in
  let full_view =
    match full with
    | Some (_, v) -> v
    | None -> overlay_view prep.p_view ntables
  in
  let new_view = view_of_tables ntables in
  let mem a = Atom.Tbl.mem st.st_univ a || Atom.Tbl.mem prep.p_store.st_univ a in
  let snap = { sn_view = full_view; sn_mem = mem } in
  let touched tbl =
    SigTbl.fold
      (fun sg _ acc ->
        List.rev_append (Option.value ~default:[] (SigTbl.find_opt tbl sg)) acc)
      ntables.tb_sigs []
  in
  let redo = List.sort_uniq Int.compare (touched prep.p_by_cond) in
  let joins = List.sort_uniq compare (touched prep.p_by_pos) in
  let perm e = prep.p_order prep.p_entries.(e).e_rule in
  let join e i =
    let body_cands k pat' ~pending =
      if k = i then view_cands ~pending new_view stats pat'
      else if k < i then view_cands ~pending prep.p_view stats pat'
      else view_cands ~pending full_view stats pat'
    in
    instances ~body_cands snap stats (perm e) prep.p_entries.(e).e_rule
  in
  (* changed entries in ascending order: re-instantiated ones replace
     their instances (their joins are subsumed), joined ones append *)
  let rec walk redo joins acc =
    let redo_first r redo' =
      let fresh = instances snap stats (perm r) prep.p_entries.(r).e_rule in
      let rec skip = function (e, _) :: l when e = r -> skip l | l -> l in
      walk redo' (skip joins) ((r, true, fresh) :: acc)
    in
    match (redo, joins) with
    | [], [] -> List.rev acc
    | r :: redo', [] -> redo_first r redo'
    | r :: redo', (e, _) :: _ when r <= e -> redo_first r redo'
    | _, (e, _) :: _ ->
        let rec span = function
          | (e', i) :: l when e' = e ->
              let mine, rest = span l in
              (i :: mine, rest)
          | l -> ([], l)
        in
        let mine, rest = span joins in
        let fresh = List.concat_map (join e) mine in
        walk redo rest ((e, false, fresh) :: acc)
  in
  let changed = walk redo joins [] in
  stats.Stats.reused_rules <-
    stats.Stats.reused_rules + prep.p_instances
    - List.fold_left (fun n r -> n + prep.p_entries.(r).e_count) 0 redo;
  let rules =
    List.map
      (fun r -> (r, instances snap stats (prep.p_order r) r))
      (Program.rules dp)
  in
  {
    i_prep = prep;
    i_delta = dp;
    i_store = st;
    i_templates = dtemplates;
    i_dtindex = dtindex;
    i_full = full;
    i_changed = changed;
    i_rules = rules;
    i_atoms =
      List.sort Atom.compare
        (Atom.Tbl.fold (fun a _ acc -> a :: acc) st.st_univ []);
  }

let increment ?par ?stats prep dp =
  let stats = get_stats stats in
  timed stats (fun () -> increment_with ?par ~stats ~merged:false prep dp)

let reinstantiated inc =
  List.filter_map (fun (e, redo, _) -> if redo then Some e else None) inc.i_changed

let new_atoms inc = inc.i_atoms

let fresh_instances inc =
  List.concat_map (fun (_, _, l) -> l) inc.i_changed
  @ List.concat_map snd inc.i_rules

(* Base entries in order, each with its shared instances, its
   re-instantiation or its shared instances plus new joins, then the
   delta's rules *)
let view inc =
  let prep = inc.i_prep in
  let out = ref [] in
  let push l = out := List.rev_append l !out in
  let rec go i changed =
    if i < Array.length prep.p_entries then
      match changed with
      | (e, redo, fresh) :: rest when e = i ->
          if not redo then push prep.p_entries.(i).e_instances;
          push fresh;
          go (i + 1) rest
      | _ ->
          push prep.p_entries.(i).e_instances;
          go (i + 1) changed
  in
  go 0 inc.i_changed;
  List.iter (fun (_, l) -> push l) inc.i_rules;
  {
    Ground.rules = List.rev !out;
    universe =
      List.fold_left
        (fun u a -> Model.AtomSet.add a u)
        prep.p_universe inc.i_atoms;
    shows = Program.shows prep.p_program @ Program.shows inc.i_delta;
  }

let compile inc =
  let prep = inc.i_prep in
  Interned.extend prep.p_compiled prep.p_parts ~drop:(reinstantiated inc)
    ~atoms:inc.i_atoms (fresh_instances inc)

let extend ?par ?stats prep dp =
  let stats = get_stats stats in
  timed stats (fun () ->
      view (increment_with ?par ~stats ~merged:false prep dp))

(* ------------------------------------------------------------------ *)
(* Structural re-preparation                                           *)
(* ------------------------------------------------------------------ *)

(* Flatten a two-layer overlay back into a single generation-0 store.
   [store_mem] and [iter_window] look through at most one base layer, so
   a [prepared] must always hold a single-layer store for the next
   overlay to see every atom. Generation 0 is correct for all future
   extends: their windows with [lo = 0] take the whole base layer. *)
let flatten_store ~max_atoms base overlay =
  let flat = new_store ~max_atoms None in
  let copy st =
    Atom.Tbl.iter
      (fun a _ ->
        if not (Atom.Tbl.mem flat.st_univ a) then begin
          Atom.Tbl.replace flat.st_univ a 0;
          flat.st_count <- flat.st_count + 1;
          index_atom flat a 0
        end)
      st.st_univ
  in
  copy base;
  copy overlay;
  flat

(* The increment absorbed for good: shared instances stay shared (and
   keep their emission order), new joins are appended, re-instantiated
   entries replaced, and the delta's rules become entries. *)
let extend_prepare ?par ?stats prep dp =
  let stats = get_stats stats in
  timed stats @@ fun () ->
  let inc = increment_with ?par ~stats ~merged:true prep dp in
  let tables, view = Option.get inc.i_full in
  let nbase = Array.length prep.p_templates in
  let tindex = SigTbl.copy prep.p_tindex in
  SigTbl.iter
    (fun sg d ->
      let b = Option.value ~default:[] (SigTbl.find_opt tindex sg) in
      SigTbl.replace tindex sg
        (b @ List.map (fun (ti, pos) -> (ti + nbase, pos)) d))
    inc.i_dtindex;
  let entries = Array.copy prep.p_entries in
  List.iter
    (fun (i, redo, fresh) ->
      let e = entries.(i) in
      entries.(i) <-
        entry e.e_rule (if redo then fresh else e.e_instances @ fresh))
    inc.i_changed;
  Array.to_list entries @ List.map (fun (r, l) -> entry r l) inc.i_rules
  |> finish ~program:(Program.append prep.p_program dp)
       ~max_atoms:prep.p_max_atoms
       ~store:(flatten_store ~max_atoms:prep.p_max_atoms prep.p_store inc.i_store)
       ~tables ~view ~templates:(Array.append prep.p_templates inc.i_templates) ~tindex ~order:prep.p_order

(** Semi-naive, index-driven, incrementally extensible grounder.

    Instantiation proceeds in two phases. Phase 1 closes the atom universe
    over the positive projection of the program with a {e semi-naive}
    fixpoint run in snapshot (BFS) rounds: atoms are stamped with the round
    that derived them, rules are indexed by body-predicate signature, and a
    round re-fires only the (rule, body-position) pairs whose signature
    gained an atom in the previous round — the delta literal is enumerated
    first (its one-generation window is the most selective) and each join
    result is derived exactly once. Because the store is frozen while a
    round's work items fire (derivations are buffered and committed in
    deterministic order between rounds), the items can be fanned out
    across domains ({!par}) with bit-for-bit identical results. Phase 2
    instantiates every rule against that universe through per-signature
    candidate tables discriminated per argument position (smallest-bucket
    selection over every ground argument, lazily materialized composite
    multi-argument group tables, and pending-builtin range narrowing for
    integer-keyed positions), in canonical ascending {!Atom.compare}
    order. Built-in comparisons are evaluated during instantiation (an
    [X = expr] equality with a ground right-hand side acts as an
    assignment, as in clingo).

    The pre-rewrite naive grounder survives as {!Naive_ground}, the
    differential oracle: on any accepted program both produce structurally
    equal [Ground.t] values ([test/test_grounder_diff.ml]).

    Safety: every variable of a rule must be bound by a positive body
    literal, an assignment, or — for choice elements — the element's own
    condition. *)

exception Unsafe of string
(** A rule violates the safety condition. *)

exception Overflow of string
(** The universe exceeded [max_atoms] (non-terminating arithmetic recursion
    such as [p(X+1) :- p(X)] without a bound). *)

(** Grounding effort counters, in the mould of {!Solver.Stats}: shared by
    {!ground}, {!prepare}, {!increment} and {!extend}, surfaced by
    [cpsrisk solve/sweep --stats] and the benches. *)
module Stats : sig
  type t = {
    mutable passes : int;  (** semi-naive fixpoint rounds *)
    mutable firings : int;  (** successful phase-1 rule firings *)
    mutable probes : int;  (** candidate-index lookups, both phases *)
    mutable fresh_rules : int;  (** ground rules instantiated anew *)
    mutable reused_rules : int;
        (** base instances shared by {!increment} without re-derivation *)
    mutable wall_s : float;
  }

  val create : unit -> t

  val add : into:t -> t -> unit
  (** Accumulate [s] into [into] (benches aggregate per-run counters). *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
  val to_json : t -> Json.t
end

type par = { pmap : 'a. (int -> 'a) -> int -> 'a array; min_items : int }
(** Parallel-map hook for phase-1 fixpoint rounds. [pmap f n] must return
    [[| f 0; …; f (n-1) |]]; slots may run on any domain ([Engine.Pool.map]
    is the production implementation — [lib/asp] cannot depend on
    [lib/engine], hence the injection). Rounds with fewer than [min_items]
    work items run inline: domain spawn latency dwarfs small joins. The
    result is bit-for-bit identical to the sequential path — work items
    only read the round's frozen store, and their derivations are
    committed sequentially in item order either way. *)

val ground :
  ?max_atoms:int ->
  ?order:(Rule.t -> int array option) ->
  ?par:par ->
  ?stats:Stats.t ->
  Program.t ->
  Ground.t
(** One-shot grounding. [max_atoms] defaults to 200_000; effort is added to
    [stats] when given. Bit-for-bit equal to {!Naive_ground.ground} on any
    program both accept.

    [order], when given, may return for a rule a permutation of its
    positive body literals (enumeration position -> original index) and the
    phase-2 join for that rule is enumerated in that order — the hook
    through which [Analysis.Infer.join_order] plugs selectivity-ascending
    orderings. Output is unaffected: each rule's matches are replayed in
    canonical (original-order nested-loop) order before emission, so the
    result stays bit-for-bit equal to the unordered and naive groundings.
    The ordering function must be exception-safe for the program (see
    [Analysis.Infer.join_order], which proves this before reordering). *)

type prepared
(** Reusable grounding state for a base program: its closed universe with
    candidate indexes, head-derivation templates, per-rule ground
    instances indexed by the signatures {!increment} classifies against,
    and the instances' compiled {!Interned} form. Read-only after
    {!prepare} — one [prepared] may be extended from many domains
    concurrently. *)

val prepare :
  ?max_atoms:int ->
  ?order:(Rule.t -> int array option) ->
  ?par:par ->
  ?stats:Stats.t ->
  Program.t ->
  prepared
(** Ground the base once, keeping the state an increment can extend, and
    compile it ({!compiled_base}) once. [order] is as in {!ground} and is
    retained: increments re-apply it to base rules they re-instantiate and
    to delta rules. Raises like {!ground} if the base itself is unsafe or
    overflows. *)

val base : prepared -> Ground.t
(** The base program's own grounding (what [ground base] returns). *)

val base_universe : prepared -> Model.AtomSet.t

val compiled_base : prepared -> Interned.t
(** The base's instances, rule by rule and without the cross-rule dedup
    of {!base}, compiled once by {!prepare} (or {!extend_prepare}): ids
    [0, n_universe) are the base universe in {!Atom.compare} order. *)

type increment
(** What grounding a delta against a [prepared] base adds to it. *)

val increment :
  ?par:par -> ?stats:Stats.t -> prepared -> Program.t -> increment
(** [increment state delta] grounds base + delta doing work proportional
    to what the delta adds. The universe fixpoint restarts from the
    delta's rules only (the base is already closed); base rules are then
    classified by the signatures that gained atoms — untouched rules share
    their base instances wholesale, without being visited; rules whose
    positive body joins are touched share the old instances and enumerate
    only joins involving a new atom; and rules whose negated-atom /
    aggregate / choice-condition signatures are touched are
    re-instantiated, so negative-literal simplification and element sets
    stay exact against the full universe. Nothing of the base is copied.
    Raises like {!ground} if the delta is unsafe or the combined universe
    overflows [prepare]'s [max_atoms]. *)

val reinstantiated : increment -> int list
(** The base rules (indices into the base program's rules, ascending)
    whose instances the increment replaces. *)

val new_atoms : increment -> Atom.t list
(** The atoms the increment adds to the base universe, ascending. *)

val fresh_instances : increment -> Ground.grule list
(** The ground rules the increment adds: re-instantiations and new joins
    of base rules in rule order, then the delta's own instances. *)

val compile : increment -> Interned.t
(** The increment compiled against {!compiled_base}: only the new atoms
    and {!fresh_instances} are interned ({!Interned.extend}), and the
    re-instantiated base rules are dropped. Solves like
    [Interned.compile] of {!extend}'s program, up to the numbering of the
    new atoms. *)

val extend : ?par:par -> ?stats:Stats.t -> prepared -> Program.t -> Ground.t
(** [extend state delta] is the {!increment} of [delta] as a whole ground
    program: base instances, re-instantiations and new joins in base rule
    order, then the delta's instances, over the base universe plus
    {!new_atoms}.

    Equivalent to [ground (Program.append base delta)] up to duplicate
    ground rules across source rules (each source rule's instances are
    exact; the global cross-rule dedup of {!ground} is not re-applied to
    shared instances): same universe, same stable models, same costs. *)

val extend_prepare :
  ?par:par -> ?stats:Stats.t -> prepared -> Program.t -> prepared
(** [extend_prepare state delta] is to {!prepare} what {!extend} is to
    {!ground}: it absorbs the {!increment} of [delta] as a permanent
    structural increment and returns warm state, compiled once, for
    [base + delta]. Chains: a refinement sequence pays one
    [extend_prepare] per level instead of a scratch re-ground, and the
    result can itself be extended per what-if delta.

    The returned state's {!base} is equivalent to
    [ground (Program.append base delta)] in the sense documented for
    {!extend} — same universe, same stable models, same costs; rule
    emission order may differ from a scratch {!prepare}. The input
    [state] is not mutated and stays usable. Raises like {!increment}. *)

(** Atom interning and a dense compiled form of ground programs.

    After grounding, every ground atom is mapped to a contiguous [int] id.
    The universe is numbered first, in {!Atom.compare} order, so bit order
    equals atom order. Rule bodies become int arrays, interpretations
    become {!Bitset.t} assignments, and the structural [Atom.t]/[AtomSet]
    representation is reconstructed only at the {!Model.t} API boundary.

    A compiled program can be {!extend}ed by an increment without
    re-interning it: the base's ids and atom table are shared, the
    increment's atoms are appended after the base's ids, and only the
    increment's rules are compiled and spliced into the base's rule
    arrays. *)

type count_elem = { etuple : Term.t list; epos : int array; eneg : int array }

type count = {
  ckind : Lit.agg_kind;
  celems : count_elem array;
  cop : Lit.cmp;
  cbound : int;
}

type rule = { head : int; pos : int array; neg : int array; counts : int array }
(** [counts] are indices into the shared {!field:t.counts} table. *)

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
(** Compressed rows: row [v] is [items.(start.(v)) ..
    items.(start.(v + 1) - 1)]. *)

val csr : int -> int -> (int -> (int -> int -> unit) -> unit) -> csr
(** [csr n n_items iter] has [n] rows; [iter i emit] calls [emit v x] once
    per entry [x] that item [i] puts in row [v]. Entries keep item order
    within a row. *)

type evaluation = {
  model : Bitset.t;
      (** the perfect model of the facts and rules (constraints unchecked) *)
  model_atoms : Model.AtomSet.t;  (** the same model as an atom set *)
  users : csr;  (** atom -> rules with it in the body, once per occurrence *)
  defs : csr;  (** atom -> rules with it as head *)
  fact_defs : csr;  (** atom -> facts stating it *)
}
(** What the cheap tier knows of a compiled base once it has evaluated it
    (see [Cheap.evaluate]): extensions of the base re-evaluate only what
    their increment changes. *)

type t = {
  atoms : Atom.t array;  (** id -> atom for ids below [n_base] *)
  appended_atoms : Atom.t array;
      (** id - [n_base] -> atom for the ids from [n_base] on; see {!atom} *)
  index : int Atom.Tbl.t;
      (** atom -> id for ids below [n_base]; shared with the base of an
          extension and never mutated after {!compile} *)
  appended : int Atom.Tbl.t;  (** atom -> id for ids from [n_base] on *)
  n_atoms : int;
  universe : Model.AtomSet.t;
      (** the universe of the compiled base: ids [0, n_universe) are its
          atoms in {!Atom.compare} order. Every model of every extension
          of one base starts from this tree. *)
  n_universe : int;
  n_base : int;
      (** ids [0, n_base) are the base's: its universe, then the atoms its
          rules mention outside it (hand-built programs), in first-use
          order. For a plain {!compile}, [n_base = n_atoms]; in an
          {!extend}ed program, ids [n_base, n_atoms) are the increment's,
          appended: its universe atoms in {!Atom.compare} order, then the
          atoms only its rules mention. *)
  facts : int array;
  rules : rule array;
  choices : choice array;
  constraints : constr array;
  weaks : weak array;
  counts : count array;  (** shared aggregate table *)
  has_counts : bool;
  has_negative_weight : bool;
      (** when true, partial weak-constraint cost is not a lower bound and
          branch-and-bound pruning must be disabled *)
  evaluation : evaluation option;
      (** [None] unless set on a base by [Cheap.evaluate] *)
  origin : origin option;  (** for an {!extend}ed program, its base *)
}

and origin = {
  base : t;
  dropped_facts : Bitset.t;  (** base fact indices the extension drops *)
  dropped_rules : Bitset.t;  (** base rule indices the extension drops *)
  first_fresh_fact : int;
      (** facts from this index on are the increment's; the ones before
          are the base's kept facts, in order *)
  first_fresh_rule : int;  (** the same for rules *)
}

val compile : Ground.t -> t

type parts
(** Where each part of a {!compile_parts} program sits in its rule
    arrays. *)

val compile_parts : Model.AtomSet.t -> Ground.grule list array -> t * parts
(** [compile_parts universe groups] compiles the rules of [groups], in
    order, over [universe] (what {!compile} does with their
    concatenation), and remembers each group's place so that {!extend}
    can drop it. *)

val extend :
  t -> parts -> drop:int list -> atoms:Atom.t list -> Ground.grule list -> t
(** [extend base parts ~drop ~atoms rules] is [base] without the rules of
    the groups in [drop] (ascending indices into the [compile_parts]
    groups), plus [rules]. Only [atoms] (the increment's universe atoms,
    ascending) and [rules] are interned; their new atoms get ids from
    [base.n_atoms] on. [base] is only read, so one base can be extended
    from several domains at once. The result solves like
    [compile] of the same rules over the base universe plus [atoms], up
    to the numbering of the increment's atoms. Raises [Invalid_argument]
    when [base] is itself an extension. *)

val atom : t -> int -> Atom.t
(** The atom of an id. *)

val choice_atoms : t -> Bitset.t
(** Atoms occurring as choice-element heads. *)

val derived_heads : t -> Bitset.t
(** Atoms with a fact or regular-rule derivation: a choice atom outside
    this set is certainly false once decided out. *)

val id : t -> Atom.t -> int
(** Raises [Not_found] for atoms outside the compiled program. *)

val canonical_order : t -> int array -> int array
(** [canonical_order p ids] puts ascending [ids] in the order a plain
    {!compile} of the same program would number them: id order, except
    that an extension's appended atoms are merged in by {!Atom.compare}.
    Searches that stop after the first models visit atoms in this order,
    so a limited enumeration finds the same models either way. *)

val atoms_of_bitset : t -> Bitset.t -> Model.AtomSet.t
(** Reconstruct the structural atom set of an assignment over the
    program's [n_atoms] ids at the API boundary. A set that holds most of
    the base universe is that universe with its unset atoms removed and
    its set ids from [n_universe] on added, so it shares all untouched
    subtrees with {!field:universe} — across every extension of one
    base. The tree shape
    therefore depends on how the set was built: compare sets with
    [Model.AtomSet.equal]/[compare], never polymorphically. *)

val eval_count : t -> Bitset.t -> count -> bool
(** Same aggregate semantics as the reference solver: the aggregated value
    over distinct tuples whose condition holds, compared to the bound. *)

val counts_sat : t -> Bitset.t -> int array -> bool

val cost_of : t -> Bitset.t -> Model.cost
(** Weak-constraint cost of a total assignment, with per-(priority, weight,
    terms) tuple deduplication, sorted by descending priority. *)

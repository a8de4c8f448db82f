(** Propagation-only solving tier (see {!Solver}'s [Config.cheap_tier]).
    No aggregates anywhere; then one of two fragments.

    Choice-free programs whose negation is stratified: no negative body
    atom shares a strongly connected component of the atom dependency
    graph with its head. Such a program is locally stratified, so its
    perfect model, evaluated component by component callees first, is
    its unique stable model; constraints are checked on it afterwards,
    which leaves one model or none. A negative loop falls back.

    Programs with choices: no negation in rule bodies or choice guards,
    no choice bounds; every choice-element guard decided by the forcing
    fixpoint, every constraint dead or forcing a single free choice atom.
    In that fragment stable models are exactly the least fixpoints of the
    definite rules over facts plus a subset of licensed choice atoms, so
    detection is sound on non-tight inputs too: an unsupported positive
    loop never enters a closure.

    Anything outside both fragments falls back to the full CDNL tier. *)

val evaluate : Interned.t -> Interned.t
(** [evaluate base] is [base] with its {!Interned.evaluation} set when
    the program is choice-free, aggregate-free and stratified: its perfect
    model and the occurrence indexes an extension needs. {!solve} then
    answers a choice-free extension of [base] (see {!Interned.extend}) by
    re-evaluating only the atoms downstream of what the extension changes,
    keeping the base model elsewhere. Programs outside the fragment come
    back unchanged. *)

val eligible : Interned.t -> bool
(** True exactly when {!solve} answers the program (including the case
    where it proves unsatisfiability outright). Exposed for tests. *)

val solve :
  ?limit:int -> stats:Solver_stats.t -> Interned.t -> Model.t list option
(** [None]: not in the fragment — the caller must run full CDNL.
    [Some models]: the complete (up to [limit]), deduplicated, sorted
    enumeration, bit-for-bit what the full tier returns. Sets
    [stats.cheap] and fills the search counters. *)

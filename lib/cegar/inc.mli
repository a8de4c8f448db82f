(** Incremental CEGAR on the engine: the refinement loop of {!Loop},
    rebuilt as deltas over warm grounder state instead of fresh
    pipelines.

    A refinement schedule is a base ASP program plus a list of structural
    increments (one per refinement level). The incremental driver pays
    one {!Asp.Grounder.prepare} for the base and one
    {!Asp.Grounder.extend_prepare} per level — round [k+1] reuses round
    [k]'s ground program — where the scratch driver re-grounds the
    accumulated program from nothing every round.

    Candidates are {!Engine.Delta}s assessed against each level and kept
    or eliminated by a caller predicate over the stable models. A
    candidate compiles to a program increment, grounded with
    {!Asp.Grounder.extend} against the level's warm state. Candidates are
    assessed one after another, in candidate order, on the calling
    domain, and results are deduplicated through {!Engine.Cache} by
    structural fingerprint: a candidate re-assessed against an unchanged
    level is a cache hit, not a solve. No learned clause or timing-
    dependent state crosses candidate solves, so the outcome and every
    counter except the wall times are the same on every run.

    The scratch driver {!run_scratch} is the retained oracle: cold
    grounding, no cache — differential tests pin {!run}'s rounds,
    survivors and verdicts bit-for-bit against it. *)

type level = {
  l_label : string;
  l_structure : Asp.Program.t;
      (** the structural increment this level adds; an empty program is a
          re-assessment round (same ground program — its survivors are
          answered from the cache) *)
}

type spec = {
  base : Asp.Program.t;
  levels : level list;
  candidates : Engine.Delta.t list;
  increment : Engine.Delta.t -> Asp.Program.t;
      (** candidate -> program increment over the level's base *)
  keep : Asp.Model.t list -> bool;
      (** survival predicate over the candidate's stable models (sorted,
          deduplicated — order-canonical, so verdicts are deterministic) *)
  limit : int option;
      (** stop each assessment after this many models. A [keep] that only
          tests satisfiability ([models <> []]) is sound with [Some 1] —
          and much cheaper on encodings with many routes per candidate.
          Both drivers apply the same limit, so outcomes stay
          differential. *)
  max_atoms : int;  (** grounder universe bound, as in {!Asp.Grounder} *)
}

type round = {
  r_level : int;  (** 0 = base abstraction, then one per schedule level *)
  r_label : string;
  r_survivors : Engine.Delta.t list;  (** in candidate order *)
  r_eliminated : Engine.Delta.t list;
      (** candidates this round proved spurious *)
}

type stats = {
  s_rounds : int;
  s_solves : int;  (** fresh solves actually run *)
  s_hits : int;  (** assessments answered from cache memory *)
  s_disk_hits : int;
  s_fresh : int;
  s_carried : int;
      (** always 0: no learned nogood crosses candidate solves. Kept only
          because the repository benchmark reads it as
          [cegar.nogoods_carried]. *)
  s_ground : Asp.Grounder.Stats.t;
      (** aggregated grounding effort — fresh vs reused instance counts
          show extend-vs-scratch sharing *)
  s_wall_s : float;
}

type outcome = {
  rounds : round list;  (** in refinement order, length = 1 + levels *)
  confirmed : Engine.Delta.t list;  (** survivors of the final round *)
  stats : stats;
}

val to_json : outcome -> Json.t
(** Rounds (level, label, survivor and eliminated candidate labels), the
    confirmed labels and the stats, with the grounding split to its
    fresh/reused instance counts. *)

type value = Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t
(** What the cache memoizes per candidate fingerprint — the
    {!Engine.Sweep} cache triple, so a serve-layer cache can be shared. *)

val run : ?cache:value Engine.Cache.t -> spec -> outcome
(** The incremental driver. A caller-supplied [cache] survives across
    calls (and, with a persist hook, across processes). Raises
    [Invalid_argument] on an empty candidate list, and like
    {!Asp.Grounder} on unsafe or overflowing programs. *)

val run_scratch : spec -> outcome
(** The retained scratch oracle: every round re-grounds the accumulated
    program plus each candidate's increment cold ({!Asp.Grounder.ground})
    with no cache. [run spec] and [run_scratch spec] agree bit-for-bit on
    [rounds] and [confirmed]. *)

val fingerprint : spec -> int -> Engine.Delta.t -> Engine.Fingerprint.t
(** [fingerprint spec level c]: the cache key of candidate [c] assessed
    at [level] — the accumulated structural fingerprint extended with the
    candidate's increment. Exposed for tests and the serve layer. *)

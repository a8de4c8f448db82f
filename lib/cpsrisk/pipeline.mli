(** The seven-step experimental framework of Fig. 1, end to end:

    1. system model — merge + validate;
    2. candidate system mutations — faults from the catalog plus techniques
       from the threat databases per typed component;
    3. reasoning — build the joint scenario space;
    4. hazard identification — exhaustive EPA over every scenario;
    5. model refinement — CEGAR round from topology-level candidates to
       behaviour-confirmed hazards (spurious candidates eliminated);
    6. quantitative risk analysis — O-RA qualitative risk per hazard;
    7. mitigation strategy — budget-constrained cost-benefit optimization. *)

type mutation = {
  component : string;
  source : [ `Fault of string | `Technique of string ];
}

type ranked_hazard = {
  row : Epa.Analysis.row;
  risk : Qual.Level.t;
}

type artifacts = {
  validation : Lint.Diagnostic.t list;
  mutations : mutation list;
  scenario_count : int;
  candidate_hazards : string list;   (** scenario labels before refinement *)
  confirmed_hazards : ranked_hazard list;  (** after refinement, ranked *)
  spurious_eliminated : string list; (** labels removed by refinement *)
  plan : Mitigation.Optimizer.solution;
  log : string list;                 (** one narrative line per step *)
}

type config = {
  model : Archimate.Model.t;
  topology : Epa.Propagation.network;
  system : Epa.Analysis.system;
  actions : Mitigation.Action.t list;
  residual : active:string list -> int;
  budget : int option;
  semantic_lint : (string * Asp.Program.t) list;
      (** named ASP encodings to gate the run on: any non-[Info] L2xx
          semantic finding in one of them aborts the pipeline. Empty
          (the default) opts out. *)
}

val water_tank_config : ?budget:int -> ?semantic_lint:bool -> unit -> config
(** [semantic_lint:true] (default [false]) gates the run on the generated
    temporal ASP programs of every paper scenario. *)

val run : config -> artifacts
(** Fails fast — raises [Invalid_argument] listing the offending
    diagnostics — when the model fails structural validation, or when an
    encoding listed in [config.semantic_lint] carries a semantic lint
    warning or error. *)

val render_log : artifacts -> string

(** {2 Engine-backed refinement (step 5 at scale)}

    The hierarchical case study of {!Hierarchy} driven through the
    incremental CEGAR engine ({!Cegar.Inc}): one warm grounder chain
    across refinement levels, each hypothesis a program increment,
    results deduplicated through the engine cache. *)

val refine_hierarchy : ?levels:int -> ?entries:int -> unit -> Cegar.Inc.outcome

val render_refine : ?stats:bool -> Cegar.Inc.outcome -> string
(** The JSON form is {!Cegar.Inc.to_json}. *)

(** {2 Engine-backed mitigation frontier (step 7 at scale)} *)

type frontier_request =
  | Frontier_optimal of int option  (** budget *)
  | Frontier_pareto
  | Frontier_sweep of int list  (** budgets *)

type frontier_answer =
  | Frontier_solution of Mitigation.Optimizer.solution
  | Frontier_front of Mitigation.Optimizer.solution list
  | Frontier_curve of (int * Mitigation.Optimizer.solution) list

val search_name : frontier_request -> string
(** ["optimal"], ["pareto"] or ["budget-curve"]: the request's name on
    the service's wire. *)

val water_tank_frontier_of :
  ?cache:Mitigation.Frontier.value Engine.Cache.t ->
  Engine.Job.prepared ->
  Mitigation.Frontier.t
(** Over already-warm prepared state — a prepared
    {!Sweeps.water_tank_spec} — {!Ops.load}'s builder, so a loaded
    water-tank model answers frontier requests from its own base
    grounding and cache. *)

val water_tank_frontier :
  ?cache:Mitigation.Frontier.value Engine.Cache.t ->
  ?horizon:int ->
  unit ->
  Mitigation.Frontier.t
(** The water-tank mitigation catalog over the paper's §VII attack
    scenario (F4 — the infected engineering workstation inducing F1–F3):
    candidate action sets are warm deltas over the prepared temporal
    encoding, the residual weighs violated requirements as
    {!Water_tank.residual_loss} does (R1 at 3, R2 at 1). *)

val mitigate_frontier :
  ?jobs:int ->
  Mitigation.Frontier.t ->
  frontier_request ->
  frontier_answer * Mitigation.Frontier.report

val render_frontier :
  ?stats:bool -> frontier_answer -> Mitigation.Frontier.report -> string

val answer_to_json : frontier_answer -> string * Json.t
(** The answer as one JSON member: ["optimal"] (a solution), ["pareto"]
    (the front) or ["sweep"] (a list of [{"budget", "solution"}]). The
    one-shot document and the served [mitigate] reply both embed it. *)

val frontier_to_json : frontier_answer -> Mitigation.Frontier.report -> Json.t
(** The [cpsrisk mitigate --json] document: the {!answer_to_json} member
    plus ["report"] ({!Mitigation.Frontier.report_to_json}). *)

val topology_sweep :
  ?jobs:int ->
  ?deltas:Engine.Delta.t list ->
  config ->
  Engine.Sweep.report * (string * string list) list
(** Batch what-if analysis over the configured system model: every delta
    (default: one single-injection delta per component element, see
    {!Sweeps.model_element_deltas}) solved through the cache-reusing sweep
    engine. Returns the engine report plus, per delta in input order, the
    affected component ids from static error propagation. *)

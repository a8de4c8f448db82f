(* The served workloads: a [cpsrisk serve] daemon in its own process,
   driven over its socket by this process with at most nproc
   connections in a closed loop, and the in-process traced replay of
   the same requests. *)

open Perfbench
module J = Serve.Json
module P = Serve.Protocol

type kind = Fresh | Warm

let horizon = 12

(* Daemon start-ups per run: before the timed phase (the last one stays
   up for it) and after it. setup_s is the median of all of them, so
   that it samples the host over the whole run, not only its start. *)
let setup_runs = 10
let setup_runs_after = 10

(* The fresh store is bounded, so that a run settles into a steady state
   (each write evicts an old entry) instead of growing the store, its
   manifest and the disk traffic left behind for the next run. The warm
   store keeps its whole primed universe. *)
let store_mb = function Fresh -> Some 8 | Warm -> None

(* Requests replayed by each in-process pass of the traced run. *)
let replay_requests = function Fresh -> 150 | Warm -> 3000

(* ------------------------------------------------------------------ *)
(* Inputs and answer checks                                            *)
(* ------------------------------------------------------------------ *)

(* What a sweep answers for one delta, as the checks compare it. *)
type answer = Affected of string list | Verdicts of (string * bool option) list

type inputs = {
  kind : kind;
  plant : Gen.plant;
  model_src : string;
  models : Gen.model list;  (** loaded, in this order *)
  request : int -> Gen.model * Gen.delta list;  (** the k-th sweep *)
  known : (Gen.model * Gen.delta, answer) Hashtbl.t;  (** the universe's oracle answers *)
  universe : (Gen.model * Gen.delta list) list;  (** what priming stores *)
}

let model_name = function Gen.Plant -> "plant" | Gen.Tank -> "tank"

let inputs kind ~seed =
  let plant = Gen.plant ~seed in
  let model_src = Gen.model_text plant in
  match kind with
  | Fresh ->
      {
        kind;
        plant;
        model_src;
        models = [ Gen.Plant ];
        request = (fun k -> (Gen.Plant, Gen.fresh_request ~seed plant k));
        known = Hashtbl.create 1;
        universe = [];
      }
  | Warm ->
      let plant_u = Array.of_list (Gen.plant_universe ~seed plant) in
      let tank_u = Array.of_list Gen.tank_universe in
      let known = Hashtbl.create 128 in
      Array.iter
        (fun d -> Hashtbl.replace known (Gen.Plant, d) (Affected (Oracle.affected plant d)))
        plant_u;
      Array.iter
        (fun d ->
          let v = Oracle.tank_verdicts ~horizon d in
          Hashtbl.replace known (Gen.Tank, d) (Verdicts (List.map (fun (k, v) -> (k, Some v)) v)))
        tank_u;
      {
        kind;
        plant;
        model_src;
        models = [ Gen.Plant; Gen.Tank ];
        request = Gen.warm_request ~seed ~plant_u ~tank_u;
        known;
        universe =
          [ (Gen.Plant, Array.to_list plant_u); (Gen.Tank, Array.to_list tank_u) ];
      }

let load_request inputs = function
  | Gen.Plant ->
      P.Load_model
        {
          name = "plant";
          backend = P.Topology;
          horizon = None;
          model_src = Some inputs.model_src;
        }
  | Gen.Tank ->
      P.Load_model
        { name = "tank"; backend = P.Water_tank; horizon = Some horizon; model_src = None }

let sweep_request (model, deltas) =
  P.Sweep
    {
      model = model_name model;
      mutations = String.concat "\n" (List.map Gen.delta_line deltas);
      jobs = None;
    }

let line r = J.to_string (P.request_to_json r)

(* The warm universe's answers are computed once; a fresh plant delta
   gets its breadth-first search when its reply arrives. *)
let oracle inputs model (d : Gen.delta) =
  match (Hashtbl.find_opt inputs.known (model, d), model) with
  | Some a, _ -> a
  | None, Gen.Plant -> Affected (Oracle.affected inputs.plant d)
  | None, Gen.Tank -> invalid_arg "Served.oracle: a tank delta outside the universe"

let answer_of_json model r =
  match model with
  | Gen.Plant ->
      let id c = Option.value ~default:"" (J.string_opt c) in
      Option.map (fun l -> Affected (List.map id l)) (J.mem_list "affected" r)
  | Gen.Tank -> (
      match J.member "verdicts" r with
      | Some (J.Obj fields) -> Some (Verdicts (List.map (fun (k, v) -> (k, J.bool_opt v)) fields))
      | _ -> None)

let answer_of_result model r =
  match model with
  | Gen.Plant -> Affected (Cpsrisk.Sweeps.affected r)
  | Gen.Tank -> Verdicts (List.map (fun (k, v) -> (k, Some v)) (Cpsrisk.Sweeps.verdicts r))

(* Every delta answered, and every answer equal to the oracle's. *)
let check_answers inputs (model, deltas) answers =
  List.length answers = List.length deltas
  && List.for_all2 (fun d a -> a = Some (oracle inputs model d)) deltas answers

let parse_reply reply = Result.bind (J.parse reply) P.response_result

(* A reply is correct when it is [ok] and its answers check out. *)
let check_parsed inputs ((model, _) as request) = function
  | Error _ -> false
  | Ok j -> (
      match J.mem_list "results" j with
      | Some rs -> check_answers inputs request (List.map (answer_of_json model) rs)
      | None -> false)

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

let socket ctx = Run.path ctx "d.sock"
let store_dir ctx = Run.path ctx "store"

type daemon = { pid : int; ctl : Proc.conn }

let call_ok c req =
  match Result.bind (J.parse (Proc.call c (line req))) P.response_result with
  | Ok j -> j
  | Error e -> failwith ("daemon refused a set-up request: " ^ e)

(* Spawn, wait until the socket accepts, load every model: the set-up
   an analyst pays before the first question. *)
let start (ctx : Run.ctx) inputs =
  let t0 = Proc.now () in
  let log = Run.path ctx "daemon.log" in
  let pid =
    Proc.spawn ~stdout:log ~stderr:log ctx.Run.cli
      ([ "serve"; "--socket"; socket ctx; "--cache-dir"; store_dir ctx; "--quiet" ]
      @ match store_mb inputs.kind with Some mb -> [ "--cache-mb"; string_of_int mb ] | None -> [])
  in
  let ctl = Proc.connect ~pid ~timeout:60.0 (socket ctx) in
  let loads = List.map (fun m -> call_ok ctl (load_request inputs m)) inputs.models in
  ({ pid; ctl }, Proc.now () -. t0, loads)

let stop d =
  ignore (Proc.call d.ctl (line P.Shutdown));
  Proc.close d.ctl;
  Proc.wait d.pid

(* Store every universe delta once, through a daemon of its own. *)
let prime ctx inputs =
  Run.fresh_dir (store_dir ctx);
  let d, _, _ = start ctx inputs in
  List.iter (fun u -> ignore (call_ok d.ctl (sweep_request u))) inputs.universe;
  ignore (stop d)

(* One set-up from scratch: a fresh workload's store starts empty. *)
let start_over ctx inputs =
  if inputs.kind = Fresh then Run.fresh_dir (store_dir ctx);
  start ctx inputs

(* A set-up that is timed and stopped again. *)
let setup_time ctx inputs =
  let d, t, _ = start_over ctx inputs in
  ignore (stop d);
  t

(* Several start-ups; the last daemon stays up for the timed phase. *)
let setup ctx inputs =
  let times = List.init (setup_runs - 1) (fun _ -> setup_time ctx inputs) in
  let d, t, loads = start_over ctx inputs in
  (d, loads, t :: times)

type sample = {
  latency : float;
  at : float;  (** completion time on the timed phase's clock *)
}

(* The daemon's resident set at one point of the timed phase, in KiB. *)
type memory = { completed : int; peak_kb : int; rss_kb : int }

let memory pid completed = { completed; peak_kb = Proc.peak_rss_kb pid; rss_kb = Proc.rss_kb pid }

(* The daemon keeps every answer in memory, so on the fresh workload its
   resident set grows by about 0.6 MiB per request for as long as new
   deltas arrive. A fresh daemon therefore serves [session] requests and
   is then replaced by a new one on an empty store: every session starts
   from the same state, whatever the throughput, and a run's memory stays
   bounded. The memory is read after [mark] requests of each session,
   which is where the fresh workload's peak_rss_mb comes from, and at the
   session's end; the traced run reports the growth between the two per
   1000 requests. The warm workload's answers are a fixed universe: one
   daemon serves its whole timed phase and its peak is read at the end. *)
let session = function Fresh -> 400 | Warm -> max_int
let mark = 200

(* Closed loop: each connection has one request in flight and sends the
   next as soon as the reply is complete and [on_reply] has seen it,
   until [clock] passes [seconds] or requests [first] to
   [first + limit - 1] have been sent. [on_reply k latency reply] checks
   and digests the reply to request [k] as it arrives, so that the load
   generator holds no replies. Returns the samples, with completion times
   on [clock], and the daemon's memory after [mark] requests (if the
   session gets there) and at the end. *)
let closed_loop ~pid ~socket ~conns ~clock ~seconds ~first ~limit ~request ~on_reply =
  let cs = Array.init conns (fun _ -> Proc.connect ~pid ~timeout:10.0 socket) in
  let sent_at = Array.make conns 0.0 and req_of = Array.make conns 0 in
  let next = ref first and samples = ref [] and completed = ref 0 and at_mark = ref None in
  let fire i =
    req_of.(i) <- !next;
    let l = request !next in
    incr next;
    sent_at.(i) <- Proc.now ();
    Proc.send cs.(i) l
  in
  Array.iteri (fun i _ -> fire i) cs;
  let live = ref (List.init conns Fun.id) in
  while !live <> [] do
    let ready, _, _ =
      Unix.select (List.map (fun i -> cs.(i).Proc.fd) !live) [] [] 10.0
    in
    if ready = [] then failwith "daemon stopped answering";
    List.iter
      (fun i ->
        if List.mem cs.(i).Proc.fd ready then
          match Proc.poll_line cs.(i) with
          | None -> ()
          | Some reply ->
              let latency = Proc.now () -. sent_at.(i) in
              samples := { latency; at = clock () } :: !samples;
              on_reply req_of.(i) latency reply;
              incr completed;
              if !completed = mark then at_mark := Some (memory pid mark);
              if clock () < seconds && !next < first + limit then fire i
              else live := List.filter (( <> ) i) !live)
      !live
  done;
  Array.iter Proc.close cs;
  (List.rev !samples, !at_mark, memory pid !completed)

(* Connections of the closed loop. The served workloads run on one CPU
   (see [pin]), so a second connection adds no work that can overlap.
   Fresh keeps two, because the queue's coalescing of concurrent sweeps
   is part of what it measures. Warm keeps one: its requests take about a
   tenth of a millisecond, and a second connection would only interleave
   them, so that a request's latency would hold the other's service time
   as well as its own. *)
let conns = function Fresh -> max 1 (min 2 Proc.host_nproc) | Warm -> 1

(* The load generator and the daemon share one CPU: this process pins
   itself before it spawns any daemon, and the daemon inherits the mask
   (so its pool runs one domain). On a shared virtual host, a wake-up on
   an idle vCPU waits for the hypervisor. With the two on different
   CPUs that wait, not the program, set the figures: warm sweeps ran
   three times slower and their throughput moved with the host's steal.
   On one CPU a hand-off between them is a context switch. *)
let pin () = ("pinned_cpu", J.Int (Proc.pin_last_cpu ()))

type session_result = {
  samples : sample list;
  at_mark : memory option;
  at_end : memory;
  cpu : float;  (** the daemon's user + system CPU during the session *)
}

(* The timed phase: closed-loop sessions on [d] and on the daemons that
   replace it, until [seconds] of timed phase have passed. The clock
   stops while one daemon is replaced by the next, and each replacement
   is a timed set-up. Every daemon is stopped on return. Returns the
   sessions and the replacements' set-up times. *)
let timed_phase (ctx : Run.ctx) inputs d ~on_reply =
  let t0 = Proc.now () and paused = ref 0.0 in
  let clock () = Proc.now () -. t0 -. !paused in
  let rec go d first sessions setups =
    let cpu0 = Proc.cpu_seconds d.pid in
    let samples, at_mark, at_end =
      closed_loop ~pid:d.pid ~socket:(socket ctx) ~conns:(conns inputs.kind) ~clock
        ~seconds:ctx.Run.seconds ~first ~limit:(session inputs.kind)
        ~request:(fun k -> line (sweep_request (inputs.request k)))
        ~on_reply
    in
    let s = { samples; at_mark; at_end; cpu = Proc.cpu_seconds d.pid -. cpu0 } in
    let p0 = Proc.now () in
    ignore (stop d);
    if clock () >= ctx.Run.seconds then (List.rev (s :: sessions), setups)
    else
      let d, t, _ = start_over ctx inputs in
      paused := !paused +. (Proc.now () -. p0);
      go d (first + List.length samples) (s :: sessions) (t :: setups)
  in
  go d 0 [] []

let all_samples sessions = List.concat_map (fun s -> s.samples) sessions

(* Fresh: the median over sessions of the peak after [mark] requests.
   Warm, or a run too short to reach the mark: the peak at the end. *)
let peak_mb kind sessions =
  match (kind, List.filter_map (fun s -> s.at_mark) sessions) with
  | Fresh, (_ :: _ as marks) -> Stats.median (List.map (fun m -> Run.mib m.peak_kb) marks)
  | (Fresh | Warm), _ -> Run.mib (List.fold_left (fun a s -> max a s.at_end.peak_kb) 0 sessions)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

let e2e (ctx : Run.ctx) kind =
  let pinned = pin () in
  let inputs = inputs kind ~seed:ctx.Run.seed in
  if kind = Warm then prime ctx inputs;
  let d, _, before = setup ctx inputs in
  let failed = ref 0 in
  let on_reply k _ reply =
    if not (check_parsed inputs (inputs.request k) (parse_reply reply)) then incr failed
  in
  let sessions, restarts = timed_phase ctx inputs d ~on_reply in
  let after = List.init setup_runs_after (fun _ -> setup_time ctx inputs) in
  let samples = all_samples sessions in
  let n = List.length samples in
  let cpu = List.fold_left (fun a s -> a +. s.cpu) 0.0 sessions in
  {
    Run.attempted = n;
    failed = !failed;
    metrics =
      [
        ("setup_s", Stats.median (before @ restarts @ after));
        ("peak_rss_mb", peak_mb kind sessions);
        ("cpu_ms_per_req", Run.ms cpu /. float_of_int n);
      ]
      @ Stats.timed_metrics (List.map (fun s -> (s.at, s.latency)) samples);
    notes =
      [
        ("samples", J.Int n);
        ("connections", J.Int (conns kind));
        ("sessions", J.Int (List.length sessions));
        pinned;
      ];
  }

(* ------------------------------------------------------------------ *)
(* In-process replay                                                   *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable memory : int;
  mutable disk : int;
  mutable fresh : int;
  mutable reads : int;
  mutable writes : int;
  mutable cheap : int;
  solver : Asp.Solver.Stats.t;
  ground : Asp.Grounder.Stats.t;
}

let counts () =
  {
    memory = 0;
    disk = 0;
    fresh = 0;
    reads = 0;
    writes = 0;
    cheap = 0;
    solver = Asp.Solver.Stats.create ();
    ground = Asp.Grounder.Stats.create ();
  }

type value = Asp.Model.t list * Asp.Solver.Stats.t * Asp.Grounder.Stats.t

let open_store kind dir : value Serve.Store.t =
  Serve.Store.open_ ?max_bytes:(Option.map (fun mb -> mb * 1024 * 1024) (store_mb kind)) dir

(* Marshalled answers re-interned on load, as the daemon's registry does. *)
let rehydrate (models, ss, gs) = (List.map Asp.Model.rehydrate models, ss, gs)

let persist spans c store =
  let base = Serve.Store.persist ~rehydrate store in
  {
    Engine.Cache.load =
      (fun fp ->
        c.reads <- c.reads + 1;
        Span.with_ spans "store.read" (fun () -> base.Engine.Cache.load fp));
    store =
      (fun fp v ->
        c.writes <- c.writes + 1;
        Span.with_ spans "store.write" (fun () -> base.Engine.Cache.store fp v));
  }

let prepare_model spans inputs = function
  | Gen.Plant ->
      let model =
        Span.with_ spans "archimate.parse" (fun () -> Archimate.Text.parse inputs.model_src)
      in
      Span.with_ spans "grounder.prepare" (fun () ->
          Engine.Job.prepare (Cpsrisk.Sweeps.topology_spec model []))
  | Gen.Tank ->
      Span.with_ spans "grounder.prepare" (fun () ->
          Engine.Job.prepare (Cpsrisk.Sweeps.water_tank_spec ~horizon []))

(* One sequential pass over [lines], calling each layer's public function
   the way the daemon does for a sweep request. Returns each request's
   answers, or [None] where a request was refused. The replies are not
   encoded here: json.* is measured on the daemon's own replies. *)
let replay spans c store inputs lines =
  let persist = persist spans c store in
  let models =
    List.map
      (fun m -> (model_name m, (m, prepare_model spans inputs m, Engine.Cache.create ~persist ())))
      inputs.models
  in
  let solve prepared delta () =
    Span.with_ spans "job.solve" (fun () ->
        let ((_, st, gs) as r) = Engine.Job.solve prepared delta in
        Span.reported spans "grounder.extend" gs.Asp.Grounder.Stats.wall_s;
        Span.reported spans "solver.solve" st.Asp.Solver.Stats.wall_s;
        Asp.Solver.Stats.accumulate c.solver st;
        Asp.Grounder.Stats.add ~into:c.ground gs;
        if st.Asp.Solver.Stats.cheap then c.cheap <- c.cheap + 1;
        r)
  in
  let job prepared cache index delta =
    let fingerprint =
      Span.with_ spans "fingerprint" (fun () -> Engine.Job.fingerprint prepared delta)
    in
    let (models, stats, gstats), source =
      Span.with_ spans "cache" (fun () ->
          Engine.Cache.find_or_compute_src cache fingerprint (solve prepared delta))
    in
    (match source with
    | Engine.Cache.Memory -> c.memory <- c.memory + 1
    | Engine.Cache.Disk -> c.disk <- c.disk + 1
    | Engine.Cache.Fresh -> c.fresh <- c.fresh + 1);
    { Engine.Job.index; delta; fingerprint; models; stats; gstats; cached = source <> Engine.Cache.Fresh; source }
  in
  let answer l =
    Span.with_ spans "request" @@ fun () ->
    match Span.with_ spans "protocol.decode" (fun () -> P.parse_request l) with
    | Ok (P.Sweep { model; mutations; _ }) -> (
        let m, prepared, cache = List.assoc model models in
        match Span.with_ spans "delta.parse" (fun () -> Engine.Delta.parse mutations) with
        | Ok deltas ->
            let results = List.mapi (job prepared cache) deltas in
            Some (Span.with_ spans "sweeps.answer" (fun () -> List.map (answer_of_result m) results))
        | Error _ -> None)
    | Ok _ | Error _ -> None
  in
  List.map answer lines

(* Summed job wall over (request wall x domains), from the Sweep reports
   of the same requests run the way the daemon batches them. *)
let pool_busy_share inputs store requests =
  let spans = Span.create ~enabled:false in
  let prepared =
    List.map
      (fun m ->
        ( m,
          ( prepare_model spans inputs m,
            Engine.Cache.create ~persist:(Serve.Store.persist ~rehydrate store) () ) ))
      inputs.models
  in
  let busy = ref 0.0 and capacity = ref 0.0 in
  List.iter
    (fun (m, deltas) ->
      let p, cache = List.assoc m prepared in
      let r =
        Engine.Sweep.run_prepared ~cache p
          (List.map
             (fun (d : Gen.delta) -> Engine.Delta.make ~mitigations:d.Gen.mitigations d.Gen.faults)
             deltas)
      in
      busy := !busy +. r.Engine.Sweep.fresh.Asp.Solver.Stats.wall_s
              +. r.Engine.Sweep.ground.Asp.Grounder.Stats.wall_s;
      capacity := !capacity +. (r.Engine.Sweep.wall_s *. float_of_int r.Engine.Sweep.jobs))
    requests;
  Run.ratio !busy !capacity

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let traced (ctx : Run.ctx) kind =
  let pinned = pin () in
  let inputs = inputs kind ~seed:ctx.Run.seed in
  if kind = Warm then prime ctx inputs;
  (* served phase: the figures only the daemon's replies carry *)
  let d, _, loads = start_over ctx inputs in
  let field name j = Option.value ~default:0.0 (J.mem_float name j) in
  (* sums over the replies, taken as they arrive *)
  let failed = ref 0 and parsed = ref 0 and bytes = ref 0 in
  let overhead = ref 0.0 and wait = ref 0.0 and batch = ref 0.0 and encode = ref 0.0 in
  let on_reply k latency reply =
    let r = parse_reply reply in
    if not (check_parsed inputs (inputs.request k) r) then incr failed;
    bytes := !bytes + String.length reply;
    match r with
    | Error _ -> ()
    | Ok j ->
        incr parsed;
        let wall = field "wall_s" j in
        overhead := !overhead +. (latency -. wall);
        wait := !wait +. (wall -. field "batch_wall_s" j);
        batch := !batch +. float_of_int (1 + Option.value ~default:0 (J.mem_int "batched_with" j));
        (* the daemon's encoder on the daemon's own reply, parsed back *)
        let t0 = Proc.now () in
        ignore (Sys.opaque_identity (J.to_string j));
        encode := !encode +. (Proc.now () -. t0)
  in
  let sessions, _ = timed_phase ctx inputs d ~on_reply in
  let samples = all_samples sessions in
  let per_reply x = Run.ratio x (float_of_int !parsed) in
  (* VmRSS growth from the mark to the end, over the sessions that pass it *)
  let rss_growth =
    let grown =
      List.filter_map
        (fun s ->
          match s.at_mark with
          | Some m when s.at_end.completed > m.completed ->
              Some (s.at_end.rss_kb - m.rss_kb, s.at_end.completed - m.completed)
          | Some _ | None -> None)
        sessions
    in
    let kb = List.fold_left (fun a (k, _) -> a + k) 0 grown
    and reqs = List.fold_left (fun a (_, r) -> a + r) 0 grown in
    Run.ratio (Run.mib kb) (float_of_int reqs /. 1000.0)
  in
  let served =
    [
      ("client.overhead_ms", Run.ms (per_reply !overhead));
      ("queue.wait_ms", Run.ms (per_reply !wait));
      ("queue.batch_mean", per_reply !batch);
      ("registry.load_ms", Stats.mean (List.map (fun j -> Run.ms (field "wall_s" j)) loads));
      ("json.encode_us", 1e6 *. per_reply !encode);
      ("json.response_bytes", Run.iratio !bytes (List.length samples));
      ("daemon.rss_mb_per_kreq", rss_growth);
    ]
  in
  (* in-process passes over the same requests *)
  let requests = List.init (replay_requests kind) inputs.request in
  let lines = List.map (fun r -> line (sweep_request r)) requests in
  let pass ~enabled name =
    let dir = if kind = Warm then store_dir ctx else Run.path ctx name in
    if kind = Fresh then Run.fresh_dir dir;
    let spans = Span.create ~enabled in
    let c = counts () in
    let store = open_store kind dir in
    let g0 = Gc.quick_stat () in
    let t0 = Proc.now () in
    let answers = Span.with_ spans "replay" (fun () -> replay spans c store inputs lines) in
    let w = Proc.now () -. t0 in
    let g1 = Gc.quick_stat () in
    let ok r = function Some a -> check_answers inputs r (List.map Option.some a) | None -> false in
    let failed = List.length (List.filter not (List.map2 ok requests answers)) in
    (spans, c, store, w, Run.gc_metrics g0 g1 (List.length lines), failed)
  in
  (* untraced passes on both sides of the traced one, so that warm-up
     does not bias the tracing overhead *)
  let _, _, _, w_a, gc, failed_a = pass ~enabled:false "replay-a" in
  let spans, c, store, w_traced, _, failed_b = pass ~enabled:true "replay-b" in
  let _, _, _, w_c, _, failed_c = pass ~enabled:false "replay-c" in
  let w_plain = (w_a +. w_c) /. 2.0 in
  let busy =
    let dir = if kind = Warm then store_dir ctx else Run.path ctx "replay-pool" in
    if kind = Fresh then Run.fresh_dir dir;
    pool_busy_share inputs (open_store kind dir) requests
  in
  let mean_ms name = let n, t = Span.total spans name in Run.ms (Run.ratio t (float_of_int n)) in
  let mean_us name = 1000.0 *. mean_ms name in
  let jobs = c.memory + c.disk + c.fresh in
  let root = List.hd (Span.roots spans) in
  let g = c.ground and s = c.solver in
  let solves = c.fresh in
  let metrics =
    served
    @ [
        ("protocol.decode_us", mean_us "protocol.decode");
        ("store.read_ms", mean_ms "store.read");
        ("store.reads", float_of_int c.reads);
        ("store.write_ms", mean_ms "store.write");
        ("store.writes", float_of_int c.writes);
        ("store.bytes", float_of_int (Serve.Store.total_bytes store));
        ("delta.parse_us", mean_us "delta.parse");
        ("fingerprint.us", mean_us "fingerprint");
        ("cache.hit_ratio", Run.iratio (c.memory + c.disk) jobs);
        ("cache.disk_hits", float_of_int c.disk);
        ("cache.misses", float_of_int c.fresh);
        ("pool.busy_share", busy);
        ("archimate.parse_ms", mean_ms "archimate.parse");
        ("grounder.prepare_ms", mean_ms "grounder.prepare");
        ("grounder.extend_ms", mean_ms "grounder.extend");
        ("grounder.fresh_rules", float_of_int g.Asp.Grounder.Stats.fresh_rules);
        ("grounder.reused_rules", float_of_int g.Asp.Grounder.Stats.reused_rules);
        ("grounder.probes", float_of_int g.Asp.Grounder.Stats.probes);
        ( "grounder.probes_per_firing",
          Run.iratio g.Asp.Grounder.Stats.probes g.Asp.Grounder.Stats.firings );
        ("solver.solve_ms", mean_ms "solver.solve");
        ("solver.guesses", float_of_int s.Asp.Solver.Stats.guesses);
        ("solver.conflicts", float_of_int s.Asp.Solver.Stats.conflicts);
        ("solver.learned", float_of_int s.Asp.Solver.Stats.learned);
        ("solver.restarts", float_of_int s.Asp.Solver.Stats.restarts);
        ("solver.unfounded_checks", float_of_int s.Asp.Solver.Stats.unfounded_checks);
        ("solver.cheap_share", Run.iratio c.cheap solves);
        ( "trace.unattributed_share",
          Run.ratio (Span.uncovered spans [ "replay"; "request" ]) (Span.duration root) );
        ("trace.overhead_share", (w_traced -. w_plain) /. w_plain);
      ]
    @ gc
  in
  {
    Run.attempted = List.length samples + (3 * List.length lines);
    failed = !failed + failed_a + failed_b + failed_c;
    metrics;
    notes =
      [
        ("samples", J.Int (List.length samples));
        ("replayed_requests", J.Int (List.length lines));
        ("replay_wall_s", J.Float w_plain);
        ("traced_wall_s", J.Float w_traced);
        pinned;
      ];
  }

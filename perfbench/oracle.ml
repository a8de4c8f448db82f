(* Independent answer checks, each computed along another path than the
   one it checks: the reachability search is written here from the
   plant's adjacency, the water-tank verdicts come from the retained
   reference grounder and solver, mitigation answers from the retained
   scratch search, and the CEGAR survivors from the schedule's
   construction. *)

(* Components that err when [faults] are injected under the active
   [mitigations]: an injected component errs unless shielded, and errors
   follow flow edges into every component that is not shielded — the
   topology backend's propagation law, by breadth-first search. *)
let affected (p : Gen.plant) (d : Gen.delta) =
  let n = Array.length p.Gen.ids in
  let index = Hashtbl.create n in
  Array.iteri (fun i id -> Hashtbl.replace index id i) p.Gen.ids;
  let succ = Array.make n [] in
  List.iter (fun (s, t) -> succ.(s) <- t :: succ.(s)) p.Gen.flows;
  let shielded = Array.make n false in
  Array.iter
    (fun (m, targets) ->
      if List.mem m d.Gen.mitigations then
        List.iter (fun t -> shielded.(t) <- true) targets)
    p.Gen.shields;
  let err = Array.make n false in
  let queue = Queue.create () in
  let visit i =
    if (not shielded.(i)) && not err.(i) then begin
      err.(i) <- true;
      Queue.add i queue
    end
  in
  List.iter
    (fun f -> Option.iter visit (Hashtbl.find_opt index f))
    d.Gen.faults;
  while not (Queue.is_empty queue) do
    List.iter visit succ.(Queue.pop queue)
  done;
  List.sort String.compare
    (List.filter_map
       (fun i -> if err.(i) then Some p.Gen.ids.(i) else None)
       (List.init n Fun.id))

(* Water-tank verdicts [(requirement, violated)] from the reference
   grounder and the exhaustive reference solver. *)
let tank_verdicts ~horizon (d : Gen.delta) =
  let spec = Cpsrisk.Sweeps.water_tank_spec ~horizon [] in
  let delta = Engine.Delta.make ~mitigations:d.Gen.mitigations d.Gen.faults in
  let program =
    Asp.Program.append spec.Engine.Job.base (spec.Engine.Job.compile delta)
  in
  match Asp.Naive.solve (Asp.Naive_ground.ground program) with
  | [ m ] ->
      List.map
        (fun (r : Epa.Requirement.t) ->
          let id = r.Epa.Requirement.id in
          ( id,
            Asp.Model.holds m
              (Asp.Atom.make "violated"
                 [ Asp.Term.const (String.lowercase_ascii id) ]) ))
        Cpsrisk.Water_tank.requirements
  | ms ->
      failwith
        (Printf.sprintf "tank oracle: %d stable models for %s" (List.length ms)
           (Gen.delta_line d))

(* Mitigation answers in the JSON shape of [cpsrisk mitigate --json],
   from the retained scratch search over a frontier's problem. *)
type solution = { selected : string list; cost : int; residual : int }

let of_solution (s : Mitigation.Optimizer.solution) =
  {
    selected = s.Mitigation.Optimizer.selected;
    cost = s.Mitigation.Optimizer.cost;
    residual = s.Mitigation.Optimizer.residual;
  }

type mitigation_answer =
  | Optimal of solution
  | Pareto of solution list
  | Curve of (int * solution) list

let mitigation (f : Mitigation.Frontier.t) request =
  let p = Mitigation.Frontier.scratch_problem f in
  match request with
  | `Optimal budget -> Optimal (of_solution (Mitigation.Optimizer.optimal ~budget p))
  | `Pareto -> Pareto (List.map of_solution (Mitigation.Optimizer.pareto p))
  | `Budgets budgets ->
      Curve
        (List.map
           (fun (b, s) -> (b, of_solution s))
           (Mitigation.Optimizer.budget_sweep p ~budgets))

(* Decode a [cpsrisk mitigate --json] document. *)
let mitigation_of_json (j : Serve.Json.t) =
  let module J = Serve.Json in
  let solution j =
    match
      ( J.mem_list "selected" j,
        J.mem_int "cost" j,
        J.mem_int "residual" j )
    with
    | Some sel, Some cost, Some residual ->
        Some
          {
            selected = List.filter_map J.string_opt sel;
            cost;
            residual;
          }
    | _ -> None
  in
  let all f xs =
    let ys = List.filter_map f xs in
    if List.length ys = List.length xs then Some ys else None
  in
  match (J.member "optimal" j, J.mem_list "pareto" j, J.mem_list "sweep" j) with
  | Some s, _, _ -> Option.map (fun s -> Optimal s) (solution s)
  | None, Some front, _ -> Option.map (fun f -> Pareto f) (all solution front)
  | None, None, Some curve ->
      Option.map
        (fun c -> Curve c)
        (all
           (fun e ->
             match (J.mem_int "budget" e, J.member "solution" e) with
             | Some b, Some s -> Option.map (fun s -> (b, s)) (solution s)
             | _ -> None)
           curve)
  | None, None, None -> None

(* The CEGAR schedule's survivors by construction: level k eliminates
   entry hypothesis k. *)
let refine_confirmed ~levels ~entries =
  let spurious = Cpsrisk.Hierarchy.spurious_entries ~levels in
  List.filter
    (fun e -> not (List.mem e spurious))
    (List.init entries (fun i -> Printf.sprintf "E%d" (i + 1)))

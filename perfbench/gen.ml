(* Seeded input generators. Every input the benchmark feeds the program
   is a pure function of the seed: the same seed yields byte-identical
   model text, delta streams and ASP programs (checked by the tests). *)

let rng ~seed salt = Random.State.make [| 0x9E3779B1; salt; seed |]

let pick st a = a.(Random.State.int st (Array.length a))

(* ------------------------------------------------------------------ *)
(* Layered-zone plant                                                  *)
(* ------------------------------------------------------------------ *)

type zone = It | Dmz | Ot | Field

let zone_name = function It -> "it" | Dmz -> "dmz" | Ot -> "ot" | Field -> "field"

type plant = {
  ids : string array;  (** component ids, index = node *)
  zones : zone array;
  types : string array;  (** component_type property *)
  flows : (int * int) list;  (** downstream-mostly data flows *)
  shields : (string * int list) array;
      (** mitigation element id and the components it shields *)
}

(* Zone sizes are fixed so that the work per delta does not depend on
   the seed; only the wiring does. OT and field nodes live in cells,
   which keeps propagation local: an injection reaches part of the
   plant, never all of it. The sizes are a choice, not a measured plant;
   they put the plant's ground base at about 1500 atoms, inside the
   10^2-10^4 regime of the paper's case study (README.md, "Where the
   sizes come from"; checked by a test). *)
let n_it = 16
let n_dmz = 8
let n_cells = 8
let ot_per_cell = 6
let field_per_cell = 12
let n_shields = 16

let component_types = function
  | It -> [| "workstation"; "server" |]
  | Dmz -> [| "firewall"; "historian" |]
  | Ot -> [| "plc"; "hmi"; "scada_server" |]
  | Field -> [| "sensor"; "actuator" |]

let plant ~seed =
  let st = rng ~seed 1 in
  let nodes = ref [] in
  let add zone cell count prefix =
    for i = 0 to count - 1 do
      let id =
        if cell < 0 then Printf.sprintf "%s%d" prefix i
        else Printf.sprintf "%s%d_%d" prefix cell i
      in
      nodes := (id, zone, cell) :: !nodes
    done
  in
  add It (-1) n_it "it";
  add Dmz (-1) n_dmz "dmz";
  for c = 0 to n_cells - 1 do add Ot c ot_per_cell "plc" done;
  for c = 0 to n_cells - 1 do add Field c field_per_cell "dev" done;
  let nodes = Array.of_list (List.rev !nodes) in
  let ids = Array.map (fun (id, _, _) -> id) nodes in
  let zones = Array.map (fun (_, z, _) -> z) nodes in
  let cells = Array.map (fun (_, _, c) -> c) nodes in
  let members pred =
    Array.of_list
      (List.filter pred (List.init (Array.length nodes) Fun.id))
  in
  let in_zone z = members (fun i -> zones.(i) = z) in
  let in_cell z c = members (fun i -> zones.(i) = z && cells.(i) = c) in
  let it = in_zone It and dmz = in_zone Dmz and ot = in_zone Ot in
  let edges = Hashtbl.create 256 in
  let order = ref [] in
  let edge s t =
    if s <> t && not (Hashtbl.mem edges (s, t)) then begin
      Hashtbl.add edges (s, t) ();
      order := (s, t) :: !order
    end
  in
  Array.iteri
    (fun i z ->
      let fan = 1 + Random.State.int st 2 in
      for _ = 1 to fan do
        match z with
        | It -> edge i (if Random.State.int st 10 < 3 then pick st it else pick st dmz)
        | Dmz -> edge i (pick st ot)
        | Ot ->
            let c = cells.(i) in
            if Random.State.bool st then edge i (pick st (in_cell Ot c));
            edge i (pick st (in_cell Field c))
        | Field ->
            (* occasional upstream telemetry into the cell's controllers *)
            if Random.State.int st 10 = 0 then edge i (pick st (in_cell Ot cells.(i)))
      done)
    zones;
  let types = Array.map (fun z -> pick st (component_types z)) zones in
  let shields =
    Array.init n_shields (fun k ->
        let covered = 2 + Random.State.int st 3 in
        let targets =
          List.sort_uniq compare
            (List.init covered (fun _ ->
                 Random.State.int st (Array.length nodes)))
        in
        (Printf.sprintf "mit%d" k, targets))
  in
  { ids; zones; types; flows = List.rev !order; shields }

let model_text p =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.bprintf buf fmt in
  add "model \"Generated plant\"\n";
  Array.iteri
    (fun i id ->
      let z = p.zones.(i) in
      add "element %s \"%s\" %s { component_type = \"%s\"; zone = \"%s\" }\n" id
        (String.uppercase_ascii id)
        (match z with It | Dmz -> "node" | Ot | Field -> "device")
        p.types.(i)
        (zone_name z))
    p.ids;
  Array.iter
    (fun (m, _) ->
      add "element %s \"%s\" node { mitigation = \"shield\" }\n" m
        (String.uppercase_ascii m))
    p.shields;
  List.iteri
    (fun k (s, t) -> add "relation f%d flow %s -> %s\n" k p.ids.(s) p.ids.(t))
    p.flows;
  Array.iteri
    (fun k (m, targets) ->
      List.iteri
        (fun j t -> add "relation a%d_%d association %s -> %s\n" k j m p.ids.(t))
        targets)
    p.shields;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Delta streams                                                       *)
(* ------------------------------------------------------------------ *)

type delta = { faults : string list; mitigations : string list }

(* the mutations-file line the daemon and the CLI parse *)
let delta_line d =
  let ids = function [] -> "-" | xs -> String.concat "," xs in
  Printf.sprintf "%s / %s" (ids d.faults) (ids d.mitigations)

let random_delta st p =
  let n = Array.length p.ids in
  let faults =
    List.init (2 + Random.State.int st 2) (fun _ -> p.ids.(Random.State.int st n))
  in
  let mitigations =
    List.init (Random.State.int st 3) (fun _ -> fst (pick st p.shields))
  in
  {
    faults = List.sort_uniq String.compare faults;
    mitigations = List.sort_uniq String.compare mitigations;
  }

(* The fresh stream: request [k] is a pure function of (seed, k), so a
   run draws as many as it has time for. Two or three faults out of 168
   components times up to two of 16 shields: repeats are rare. *)
let fresh_deltas_per_request = 4

let fresh_request ~seed p k =
  let st = rng ~seed (1_000_003 + k) in
  List.init fresh_deltas_per_request (fun _ -> random_delta st p)

(* The water-tank universe: every fault combination under four
   mitigation sets. *)
let tank_universe =
  let faults = [ "F1"; "F2"; "F3"; "F4" ] in
  let subsets =
    List.init 16 (fun mask ->
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) faults)
  in
  List.concat_map
    (fun mitigations -> List.map (fun faults -> { faults; mitigations }) subsets)
    [ []; [ "M1" ]; [ "M2" ]; [ "M1"; "M2" ] ]

let plant_universe_size = 64

let plant_universe ~seed p =
  let st = rng ~seed 3 in
  let seen = Hashtbl.create 64 in
  let rec draw acc n =
    if n = 0 then List.rev acc
    else
      let d = random_delta st p in
      if Hashtbl.mem seen d then draw acc n
      else begin
        Hashtbl.add seen d ();
        draw (d :: acc) (n - 1)
      end
  in
  draw [] plant_universe_size

type model = Plant | Tank

(* The warm stream: one- to four-delta requests drawn with repeats from
   the fixed universes, 3 in 4 against the plant. *)
let warm_request ~seed ~plant_u ~tank_u k =
  let st = rng ~seed (2_000_003 + k) in
  let model, u = if Random.State.int st 4 = 0 then (Tank, tank_u) else (Plant, plant_u) in
  (model, List.init (1 + Random.State.int st 4) (fun _ -> pick st u))

(* ------------------------------------------------------------------ *)
(* Search-heavy ASP programs with answers known by construction        *)
(* ------------------------------------------------------------------ *)

(* The seed picks the constant names only. Names are drawn distinct,
   fixed-width and handed out in ascending order, so every seed gives
   the same search: the solver's work per instance does not depend on
   the seed, which keeps run-to-run figures comparable. *)
let names st prefix n =
  let tbl = Hashtbl.create n in
  let rec draw () =
    let k = Random.State.int st 1_000_000 in
    if Hashtbl.mem tbl k then draw () else (Hashtbl.add tbl k (); k)
  in
  let ks = List.sort compare (List.init n (fun _ -> draw ())) in
  Array.of_list (List.map (Printf.sprintf "%s%06d" prefix) ks)

(* h+1 pigeons into h holes: unsatisfiable. *)
let pigeon_holes = 7

let pigeon_program ~seed =
  let st = rng ~seed 4 in
  let buf = Buffer.create 512 in
  Array.iter (Printf.bprintf buf "pigeon(%s).\n") (names st "p" (pigeon_holes + 1));
  Array.iter (Printf.bprintf buf "hole(%s).\n") (names st "h" pigeon_holes);
  Buffer.add_string buf "1 { at(P,H) : hole(H) } 1 :- pigeon(P).\n";
  Buffer.add_string buf ":- at(P,H), at(Q,H), P < Q.\n";
  Buffer.contents buf

(* Proper c-colourings of a graph with a closed-form count: a cycle C_n
   has (c-1)^n + (-1)^n (c-1), a tree on n nodes c (c-1)^(n-1). *)
let colours = 3

let colouring_program ~nodes ~edges =
  let buf = Buffer.create 512 in
  Array.iter (Printf.bprintf buf "node(%s).\n") nodes;
  Array.iter (fun (a, b) -> Printf.bprintf buf "edge(%s,%s).\n" a b) edges;
  for c = 1 to colours do Printf.bprintf buf "col(c%d).\n" c done;
  Buffer.add_string buf "1 { colour(X,C) : col(C) } 1 :- node(X).\n";
  Buffer.add_string buf ":- edge(X,Y), colour(X,C), colour(Y,C).\n";
  Buffer.add_string buf "#show colour/2.\n";
  Buffer.contents buf

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

let cycle_nodes = 10

let cycle_program ~seed =
  let n = cycle_nodes in
  let v = names (rng ~seed 5) "v" n in
  let edges = Array.init n (fun i -> (v.(i), v.((i + 1) mod n))) in
  let count = pow (colours - 1) n + ((if n mod 2 = 0 then 1 else -1) * (colours - 1)) in
  (colouring_program ~nodes:v ~edges, count)

(* a complete binary tree shape *)
let tree_nodes = 9

let tree_program ~seed =
  let n = tree_nodes in
  let v = names (rng ~seed 6) "t" n in
  let edges = Array.init (n - 1) (fun i -> (v.(i / 2), v.(i + 1))) in
  (colouring_program ~nodes:v ~edges, colours * pow (colours - 1) (n - 1))

(* Shared workload registry for the unified bench driver (bench/main.ml).

   Each bench module exposes one [bench] value: a filter key, the default
   path of its committed full-run JSON, and a [run] function that executes
   the workloads, writes that per-bench JSON, and returns one [row] per
   timed section for the driver's cross-bench throughput table. The rows
   are the machine-readable common denominator — per-bench JSON files keep
   their richer bench-specific schemas. *)

type row = {
  r_workload : string;  (** section name, e.g. "tc" or "warm-disk" *)
  r_param : string;  (** scale knob as text; "" when the section has none *)
  r_wall_s : float;  (** wall-clock of the timed section *)
  r_ground_atoms : int option;
      (** ground atoms produced by the timed section, when grounding is
          what it measures — the numerator of the atoms/s column *)
  r_models : int option;
      (** models produced by the timed section, when solving is what it
          measures — the numerator of the models/s column *)
  r_note : string;  (** free-form detail: speedups, hit rates, guards *)
}

let row ?ground_atoms ?models ?(note = "") ~param workload wall_s =
  {
    r_workload = workload;
    r_param = param;
    r_wall_s = wall_s;
    r_ground_atoms = ground_atoms;
    r_models = models;
    r_note = note;
  }

type bench = {
  name : string;  (** filter key: "ground", "solver", "sweep", ... *)
  descr : string;  (** one-line summary for [--list] *)
  default_out : string;  (** committed full-run JSON, e.g. BENCH_ground.json *)
  run : smoke:bool -> out:string -> row list;
      (** run the bench, write its JSON to [out]; guards inside may [exit 2] *)
}

(* best-of-reps timer shared by the bench modules *)
let time ~reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let per_s count seconds =
  if seconds > 0.0 then float_of_int count /. seconds else 0.0

(* every bench's JSON file goes through the one codec *)
let write_json path j =
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s\n" path

(* What every workload shares: the run context, metric records and a
   few file-system helpers. *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  cli : string;  (** the cpsrisk binary, relative to the checkout *)
  work : string;  (** this run's scratch directory *)
}

let path ctx name = Filename.concat ctx.work name

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** by metric name; units live in [Pb] *)
  notes : (string * Serve.Json.t) list;  (** extra fields for the stamp line *)
}

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    Unix.mkdir p 0o755
  end

let fresh_dir p =
  rm_rf p;
  mkdir_p p

let write_file p s = Out_channel.with_open_bin p (fun oc -> output_string oc s)

let ms s = s *. 1000.0
let mib kb = float_of_int kb /. 1024.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* GC work between two [Gc.quick_stat] snapshots, per request. *)
let gc_metrics (g0 : Gc.stat) (g1 : Gc.stat) requests =
  let n = float_of_int (max 1 requests) in
  [
    ("gc.minor_mwords", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6 /. n);
    ( "gc.major_collections",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. n );
  ]

(* The repository benchmark's main program.

     sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   from the root of a source checkout. Workloads: whatif-fresh and
   oneshot-cli, the two BENCHMARK.json names, and whatif-warm, which is
   run by hand only (see perfbench/README.md). With --trace 0 the run
   measures the end-to-end metrics by driving the built cpsrisk binary
   from outside; with --trace 1 it replays the workload's inputs in this
   process and reports the per-layer metrics. The last line of standard
   output is the result object, the line before it the host stamp; a
   readable summary goes to standard error. The metric names and units
   come from BENCHMARK.json. *)

open Perfbench
module J = Serve.Json

let cli = "./_build/default/bin/cpsrisk_cli.exe"

(* The metrics to report, with their units, from BENCHMARK.json at the
   checkout's root: its end-to-end list for a --trace 0 run, its
   per-layer list for a --trace 1 run. *)
let metric_list key =
  let doc = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Result.map (J.mem_list key) (J.parse doc) with
  | Ok (Some ms) ->
      List.map
        (fun m ->
          match (J.mem_string "name" m, J.mem_string "unit" m) with
          | Some name, Some u -> (name, u)
          | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
        ms
  | Ok None | Error _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

let workloads =
  [
    ("whatif-fresh", (fun ctx -> Served.e2e ctx Served.Fresh), fun ctx -> Served.traced ctx Served.Fresh);
    ("whatif-warm", (fun ctx -> Served.e2e ctx Served.Warm), fun ctx -> Served.traced ctx Served.Warm);
    ("oneshot-cli", Oneshot.e2e, Oneshot.traced);
  ]

let git_head () =
  (* only this checkout's own repository, never an enclosing one *)
  if not (Sys.file_exists ".git") then "unknown"
  else
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
    | ic ->
        let head = try String.trim (input_line ic) with End_of_file -> "" in
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 when head <> "" -> head
        | _ -> "unknown")
    | exception Unix.Unix_error _ -> "unknown"

(* Steal and total jiffies of the host's aggregate CPU line: the share
   of CPU time the hypervisor gave to other guests during the run. *)
let cpu_jiffies () =
  match String.split_on_char ' ' (In_channel.with_open_bin "/proc/stat" input_line) with
  | "cpu" :: rest ->
      let xs = List.filter_map int_of_string_opt rest in
      (List.nth xs 7, List.fold_left ( + ) 0 xs)
  | _ | (exception _) -> (0, 0)

(* Milliseconds for a fixed integer loop, the median of five: how fast
   this host ran at the end of the run. Shared hosts drift by tens of
   percent over minutes without any steal showing, and this figure lets
   a reader tell such drift from a change in the program. *)
let host_probe_ms () =
  let once () =
    let t0 = Proc.now () in
    let x = ref 1 in
    for _ = 1 to 20_000_000 do
      x := (!x * 1103515245) + 12345
    done;
    ignore (Sys.opaque_identity !x);
    1000.0 *. (Proc.now () -. t0)
  in
  Stats.median (List.init 5 (fun _ -> once ()))

let stamp (ctx : Run.ctx) ~trace ~steal (o : Run.outcome) percentiles =
  J.Obj
    ([
       ("workload", J.String ctx.Run.workload);
       ("seed", J.Int ctx.Run.seed);
       ("seconds", J.Float ctx.Run.seconds);
       ("trace", J.Bool trace);
       ("nproc", J.Int Proc.host_nproc);
       ("recommended_domain_count", J.Int Proc.host_domains);
       ("ocaml", J.String Sys.ocaml_version);
       ("git_head", J.String (git_head ()));
       ("host_steal_share", J.Float steal);
       ("host_probe_ms", J.Float (host_probe_ms ()));
       ("attempted", J.Int o.Run.attempted);
       ("failed", J.Int o.Run.failed);
       ("fail_share", J.Float (Run.iratio o.Run.failed o.Run.attempted));
     ]
    @ percentiles @ o.Run.notes)

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input generator seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let e2e, traced =
    match List.find_opt (fun (n, _, _) -> n = !workload) workloads with
    | Some (_, e, t) -> (e, t)
    | None ->
        fail
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", " (List.map (fun (n, _, _) -> n) workloads)))
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then fail usage;
  if not (Sys.file_exists cli) then fail (cli ^ " is missing: run perfbench/run.sh");
  let work =
    Filename.concat "perfbench/_work" (Printf.sprintf "%s-%d" !workload (Unix.getpid ()))
  in
  let ctx =
    { Run.workload = !workload; seed = !seed; seconds = float_of_int !seconds; cli; work }
  in
  let trace = !trace = 1 in
  let wanted =
    try metric_list (if trace then "per_layer" else "end_to_end")
    with Failure msg | Sys_error msg -> fail msg
  in
  Run.fresh_dir work;
  (* a run stopped from outside still stops its daemon *)
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             Proc.kill_all ();
             Run.rm_rf work;
             exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let steal0, total0 = cpu_jiffies () in
  let outcome =
    match if trace then traced ctx else e2e ctx with
    | o -> o
    | exception e ->
        Proc.kill_all ();
        Run.rm_rf work;
        fail (Printexc.to_string e)
  in
  Run.rm_rf work;
  let steal1, total1 = cpu_jiffies () in
  let steal = Run.iratio (steal1 - steal0) (total1 - total0) in
  let value name =
    match List.assoc_opt name outcome.Run.metrics with
    | Some v -> v
    | None when trace -> 0.0 (* a layer this workload leaves idle *)
    | None -> fail (Printf.sprintf "%s was not measured (too few samples for it?)" name)
  in
  let p99 =
    match List.assoc_opt "latency_p99_ms" outcome.Run.metrics with
    | Some v -> [ ("latency_p99_ms", J.Float v) ]
    | None -> []
  in
  let metrics = List.map (fun (name, u) -> (name, value name, u)) wanted in
  List.iter (fun (name, v, u) -> Printf.eprintf "  %-28s %14.6f %s\n" name v u) metrics;
  Printf.eprintf "  %-28s %14d of %d\n%!" "failed" outcome.Run.failed outcome.Run.attempted;
  print_endline (J.to_string (J.Obj [ ("stamp", stamp ctx ~trace ~steal outcome p99) ]));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (outcome.Run.failed = 0));
            ("attempted", J.Int outcome.Run.attempted);
            ("failed", J.Int outcome.Run.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, v, u) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                   metrics) );
          ]))

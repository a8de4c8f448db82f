(* Child processes and their accounting, and a line-oriented client for
   the daemon's socket. *)

external wait4 : int -> int * float * float * int = "perfbench_wait4"
external clk_tck : unit -> int = "perfbench_clk_tck"
external nproc : unit -> int = "perfbench_nproc"
external pin_last_cpu : unit -> int = "perfbench_pin_last_cpu"

(* The host's CPU count and domain recommendation, read when the program
   starts, before [pin_last_cpu] narrows both to one. *)
let host_nproc = nproc ()
let host_domains = Domain.recommended_domain_count ()

(* Seconds on the monotonic clock: wall-clock steps cannot bend a timing. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type exit = {
  code : int;  (** exit status, or 128 + signal *)
  cpu_s : float;  (** user + system CPU of the child *)
  maxrss_kb : int;  (** the child's peak resident set *)
}

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

(* Children spawned and not yet waited for, so that a failing run can
   still stop every process it started. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let kill_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    live;
  Hashtbl.reset live

(* A child with an empty stdin and its output in files. *)
let spawn ~stdout ~stderr prog args =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let out = open_out_fd stdout in
  let err = if stderr = stdout then out else open_out_fd stderr in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close stdin_r;
        Unix.close out;
        if err != out then Unix.close err)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) stdin_r out err)
  in
  Hashtbl.replace live pid ();
  pid

let wait pid =
  let code, user, sys, maxrss_kb = wait4 pid in
  Hashtbl.remove live pid;
  { code; cpu_s = user +. sys; maxrss_kb }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One invocation from spawn to exit; the output comes back as a string. *)
let run ~out prog args =
  let t0 = now () in
  let pid = spawn ~stdout:out ~stderr:(out ^ ".err") prog args in
  let e = wait pid in
  let wall = now () -. t0 in
  (e, wall, read_file out)

(* /proc/<pid>/stat utime + stime, in seconds. *)
let cpu_seconds pid =
  let line = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces: count fields after its ')' *)
  let rest = String.index_from line (String.rindex line ')') ' ' + 1 in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub line rest (String.length line - rest))) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. float_of_int (clk_tck ())

(* A "Vm...:" field of a live process's status, in KiB. *)
let status_kb field pid =
  let prefix = field ^ ":" in
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  match List.find_opt (fun l -> String.starts_with ~prefix l) lines with
  | None -> 0
  | Some l ->
      let n = String.length prefix in
      Scanf.sscanf (String.sub l n (String.length l - n)) " %d" Fun.id

(* The peak (VmHWM) and the current (VmRSS) resident set, in KiB. *)
let peak_rss_kb = status_kb "VmHWM"
let rss_kb = status_kb "VmRSS"

(* ------------------------------------------------------------------ *)
(* Socket client                                                       *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send c line = write_all c.fd (line ^ "\n") 0

(* Read what is available; the first complete line, if any, is cut off
   the pending input and returned. *)
let poll_line c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "daemon closed the connection";
  Buffer.add_subbytes c.pending c.chunk 0 n;
  if not (Bytes.contains_from (Bytes.sub c.chunk 0 n) 0 '\n') then None
  else
    let s = Buffer.contents c.pending in
    let i = String.index s '\n' in
    Buffer.clear c.pending;
    Buffer.add_string c.pending (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)

let rec recv c = match poll_line c with Some l -> l | None -> recv c

let call c line =
  send c line;
  recv c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Connect once the daemon accepts; fails if it exits first or takes
   longer than [timeout] seconds. *)
let connect ~pid ~timeout socket =
  let deadline = now () +. timeout in
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; pending = Buffer.create 65536; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            Hashtbl.remove live pid;
            failwith "daemon exited before accepting connections");
        if now () > deadline then failwith "daemon did not accept in time";
        Unix.sleepf 0.001;
        attempt ()
  in
  attempt ()

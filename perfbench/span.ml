(* Nested timing spans for the traced replay, recorded from outside the
   program: each span wraps one call into a layer's public function.
   Layers that report their own wall time in a returned stats record
   (the grounder and solver do) are entered as [reported] children of
   the span around the call. *)

type span = {
  name : string;
  start : int64;  (** monotonic ns *)
  mutable stop : int64;
  mutable children : span list;  (** most recent first *)
}

type t = { enabled : bool; mutable stack : span list; mutable roots : span list }

let now () = Monotonic_clock.now ()

let create ~enabled = { enabled; stack = []; roots = [] }

let duration s = Int64.to_float (Int64.sub s.stop s.start) *. 1e-9

let covered s = List.fold_left (fun acc c -> acc +. duration c) 0.0 s.children

(* Time not spent in any child span. *)
let self s = duration s -. covered s

let open_ t name =
  let s = { name; start = now (); stop = 0L; children = [] } in
  t.stack <- s :: t.stack

let close t =
  match t.stack with
  | [] -> invalid_arg "Span.close: no open span"
  | s :: rest ->
      s.stop <- now ();
      t.stack <- rest;
      (match rest with
      | parent :: _ -> parent.children <- s :: parent.children
      | [] -> t.roots <- s :: t.roots)

let with_ t name f =
  if not t.enabled then f ()
  else begin
    open_ t name;
    Fun.protect ~finally:(fun () -> close t) f
  end

(* A child of the innermost open span whose duration a layer reported
   itself. It is placed to end now and clamped to the parent's time not
   yet covered by other children, so a child never exceeds its parent
   even when the two clocks disagree. *)
let reported t name seconds =
  if t.enabled then
    match t.stack with
    | [] -> invalid_arg "Span.reported: no open span"
    | parent :: _ ->
        let stop = now () in
        let elapsed = Int64.to_float (Int64.sub stop parent.start) *. 1e-9 in
        let room = Float.max 0.0 (elapsed -. covered parent) in
        let d = Float.min (Float.max 0.0 seconds) room in
        let start = Int64.sub stop (Int64.of_float (d *. 1e9)) in
        parent.children <- { name; start; stop; children = [] } :: parent.children

let roots t = List.rev t.roots

(* Per-name totals over every span below (and including) the roots:
   (name, count, total seconds, self seconds), sorted by name. *)
let totals t =
  let tbl = Hashtbl.create 32 in
  let rec walk s =
    let c, d, sf =
      Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
    in
    Hashtbl.replace tbl s.name (c + 1, d +. duration s, sf +. self s);
    List.iter walk s.children
  in
  List.iter walk t.roots;
  List.sort compare
    (Hashtbl.fold (fun name (c, d, sf) acc -> (name, c, d, sf) :: acc) tbl [])

(* Time in the given spans not covered by any of their children: with
   the replay's root and per-request spans, the time no layer claims. *)
let uncovered t names =
  List.fold_left
    (fun acc (n, _, _, self) -> if List.mem n names then acc +. self else acc)
    0.0 (totals t)

let total t name =
  match List.find_opt (fun (n, _, _, _) -> n = name) (totals t) with
  | Some (_, c, d, _) -> (c, d)
  | None -> (0, 0.0)

type severity = Info | Warning | Error

type pos = { line : int; col : int }

type t = {
  code : string;
  severity : severity;
  pos : pos option;
  subject : string option;
  message : string;
}

let make ~code ~severity ?pos ?subject message =
  { code; severity; pos; subject; message }

let error ~code ?pos ?subject fmt =
  Printf.ksprintf (fun message -> make ~code ~severity:Error ?pos ?subject message) fmt

let warning ~code ?pos ?subject fmt =
  Printf.ksprintf
    (fun message -> make ~code ~severity:Warning ?pos ?subject message)
    fmt

let info ~code ?pos ?subject fmt =
  Printf.ksprintf (fun message -> make ~code ~severity:Info ?pos ?subject message) fmt

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let pos_to_string { line; col } =
  if col > 0 then Printf.sprintf "line %d, col %d" line col
  else Printf.sprintf "line %d" line

(* Errors first, then source order, then code: the order a reader fixes
   things in. *)
let compare_pos a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> 1
  | Some _, None -> -1
  | Some a, Some b ->
      let c = Stdlib.compare a.line b.line in
      if c <> 0 then c else Stdlib.compare a.col b.col

let compare a b =
  let c = Stdlib.compare b.severity a.severity in
  if c <> 0 then c
  else
    let c = compare_pos a.pos b.pos in
    if c <> 0 then c else Stdlib.compare (a.code, a.message) (b.code, b.message)

let sort ds = List.stable_sort compare ds

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

(* informational findings do not make a program dirty *)
let is_clean ds = List.for_all (fun d -> d.severity = Info) ds

let summary ds =
  let part n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") in
  String.concat ", "
    (List.filter_map
       (fun (sev, what) ->
         match count sev ds with 0 -> None | n -> Some (part n what))
       [ (Error, "error"); (Warning, "warning"); (Info, "info") ])
  |> function
  | "" -> "clean"
  | s -> s

let to_string d =
  let pos = match d.pos with Some p -> pos_to_string p ^ ": " | None -> "" in
  let subject = match d.subject with Some s -> " " ^ s ^ ":" | None -> "" in
  Printf.sprintf "%s%s[%s]%s %s" pos
    (severity_to_string d.severity)
    d.code subject d.message

let pp ppf d = Format.pp_print_string ppf (to_string d)

let to_json d =
  Json.Obj
    (List.filter_map Fun.id
       [
         Some ("code", Json.String d.code);
         Some ("severity", Json.String (severity_to_string d.severity));
         Option.map (fun p -> ("line", Json.Int p.line)) d.pos;
         Option.bind d.pos (fun p ->
             if p.col > 0 then Some ("col", Json.Int p.col) else None);
         Option.map (fun s -> ("subject", Json.String s)) d.subject;
         Some ("message", Json.String d.message);
       ])

(** Located diagnostics: the common currency of every static check in the
    framework (ASP program lint, requirement-coverage lint, ArchiMate model
    validation).

    A diagnostic carries a stable error code ([L001]…), a severity, an
    optional source position (1-based line/col; [col = 0] means "line
    only", as produced by the line-oriented model parser), an optional
    subject (rule text, element or relationship id, requirement id) and a
    human-readable message. Diagnostics render as text or JSON. *)

type severity = Info | Warning | Error
(** Ordered: [Info < Warning < Error]. [Info] findings are stylistic and do
    not make an artifact dirty. *)

type pos = { line : int; col : int }

type t = {
  code : string;
  severity : severity;
  pos : pos option;
  subject : string option;
  message : string;
}

val make :
  code:string -> severity:severity -> ?pos:pos -> ?subject:string -> string -> t

val error :
  code:string -> ?pos:pos -> ?subject:string ->
  ('a, unit, string, t) format4 -> 'a

val warning :
  code:string -> ?pos:pos -> ?subject:string ->
  ('a, unit, string, t) format4 -> 'a

val info :
  code:string -> ?pos:pos -> ?subject:string ->
  ('a, unit, string, t) format4 -> 'a

val severity_to_string : severity -> string
val pos_to_string : pos -> string

val compare : t -> t -> int
(** Errors first, then by source position (unlocated last), then code. *)

val sort : t list -> t list

val count : severity -> t list -> int
val has_errors : t list -> bool

val is_clean : t list -> bool
(** No diagnostics at [Warning] or [Error] severity. *)

val summary : t list -> string
(** ["2 errors, 1 warning"], or ["clean"]. *)

val to_string : t -> string
(** [line 3, col 5: error[L001] subject: message]. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
(** [{"code", "severity", "line", "col", "subject", "message"}]; the
    position and subject members are omitted when absent, [col] when 0. *)

(** A minimal, dependency-free JSON value with a canonical encoder and
    a strict parser — just enough for the versioned artifact schema in
    {!Report}.

    The encoder is {e canonical}: a given value always renders to the
    same bytes (object fields in construction order, fixed number
    formatting, fixed escaping), so equal artifacts are byte-equal on
    disk and `git diff` on a golden file is meaningful. The parser
    accepts standard JSON (insignificant whitespace, [\uXXXX] escapes)
    and round-trips everything the encoder emits. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Canonical rendering. With [~indent:true] (default) objects and
    arrays are broken over lines with two-space indentation — golden
    artifacts are committed, so they should diff line-by-line. *)

val of_string : string -> (t, string) result
(** Strict parse of one JSON document ([Error] carries a byte offset
    and message). Trailing whitespace is allowed, trailing garbage is
    not. Numbers without [.], [e] or [E] parse as [Int]. *)

(** {2 Accessors}

    All return [Error] with the member path when the shape is wrong;
    {!Report}'s loader threads these through, so a malformed artifact
    names the offending field. *)

val member : string -> t -> (t, string) result
val to_int : t -> (int, string) result
val to_bool : t -> (bool, string) result
val to_str : t -> (string, string) result
val to_list : t -> (t list, string) result
val to_assoc : t -> ((string * t) list, string) result

val mem_int : string -> t -> (int, string) result
val mem_str : string -> t -> (string, string) result
val mem_list : string -> t -> (t list, string) result


(** A minimal JSON reader, and the string escaper its writers share.

    The repository emits several hand-assembled JSON documents — fuzz
    reports, bench telemetry, Chrome traces — and deliberately carries
    no external JSON dependency.  This module closes the loop: it
    parses those documents back so tests can assert their shape instead
    of grepping strings, and so tools can post-process the telemetry.

    It is a strict little recursive-descent parser over the JSON
    grammar (RFC 8259 minus the corner cases the repo never emits:
    surrogate-pair escapes decode to U+FFFD replacements, and numbers
    are parsed as OCaml floats). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

val parse : string -> (t, string) result
(** [parse s] parses exactly one JSON value (with surrounding
    whitespace).  Trailing non-whitespace is an error.  The error
    string carries a character offset. *)

val parse_exn : string -> t
(** {!parse}, raising [Failure] on malformed input. *)

val of_file : string -> (t, string) result
(** [of_file path] reads and parses a whole file. *)

(** {1 Accessors}

    Total accessors for tests: they return [option] rather than
    raising, so an assertion failure names the missing member instead
    of dying in the helper. *)

val member : string -> t -> t option
(** [member k (Obj _)] is the first member named [k]. *)

val to_list : t -> t list option
val to_string : t -> string option
val to_float : t -> float option
val to_int : t -> int option
(** [to_int] truncates; JSON has only floats. *)

val to_bool : t -> bool option

(** {1 Writing}

    The repository's JSON documents are assembled by hand; every string
    member goes through this one escaper. *)

val escape : string -> string
(** [escape s] is the body of a JSON string literal holding [s] (no
    surrounding quotes): double quote and backslash are escaped,
    newline, carriage return and tab take their short escapes, every
    other control byte below 0x20 becomes a six-byte unicode escape,
    and all other bytes pass through, so UTF-8 text stays as it is.
    {!parse} reads the result back to [s]. *)

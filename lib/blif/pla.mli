(** Espresso PLA format (.pla) reader and writer.

    The classic two-level interchange format:

    {v
    .i 3
    .o 2
    .p 4
    1-0 10
    -11 01
    .e
    v}

    Multi-output covers are represented as one {!Logic.Sop.t} per output
    column (a ['1'] in an output column places the cube in that output's
    on-set; ['0'] and ['~'] leave it out; the type [fr] semantics of
    espresso are assumed).  [.ilb] / [.ob] provide signal names. *)

exception Parse_error of int * string

type t = {
  inputs : string array;  (** input names (synthesised if no [.ilb]) *)
  outputs : (string * Logic.Sop.t) array;  (** per-output on-set covers *)
}

val parse_string : string -> t
(** @raise Parse_error on malformed input. *)

val to_string : t -> string
(** Renders with [.i/.o/.ilb/.ob/.p/.e]; cubes of the different outputs
    are merged line-wise where identical. *)

val to_file : t -> string -> unit

val to_network : t -> Logic.Network.t
(** [to_network p] builds the two-level network (AND/OR/NOT). *)

val of_network : Logic.Network.t -> t
(** [of_network n] enumerates each output's on-set (exhaustive; inputs
    capped at 16) and returns the PLA.
    @raise Invalid_argument beyond 16 inputs. *)

val minimize : t -> t
(** [minimize p] runs {!Logic.Sop.minimize} on every output cover. *)

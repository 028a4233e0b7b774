(** ISCAS-85/89 ".bench" netlist format.

    The ISCAS benchmark circuits are traditionally distributed in this
    line-oriented format:

    {v
    INPUT(g1)
    OUTPUT(g22)
    g10 = NAND(g1, g3)
    g22 = NOT(g10)
    v}

    Supported functions: AND, NAND, OR, NOR, XOR, XNOR, NOT, BUFF/BUF.
    [DFF] is rejected (the mapping flow is combinational).  Comments start
    with [#].  The writer emits one line per gate, so [parse (write n)]
    reproduces the network up to structural identity. *)

exception Parse_error of int * string
(** [(line, message)] on malformed input. *)

val parse_string : string -> Logic.Network.t
(** [parse_string text] parses a [.bench] description.
    @raise Parse_error on malformed input. *)

val to_string : Logic.Network.t -> string
(** [to_string n] renders the network in [.bench] syntax. *)

val to_file : Logic.Network.t -> string -> unit
(** [to_file n path] writes {!to_string} to [path]. *)

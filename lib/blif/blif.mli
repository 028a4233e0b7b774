(** BLIF (Berkeley Logic Interchange Format) reader and writer.

    The subset implemented is the combinational core used by the MCNC /
    ISCAS benchmark distributions: [.model], [.inputs], [.outputs],
    [.names] with single-output SOP covers (including don't-care ['-']
    input columns and both on-set ['1'] and off-set ['0'] output columns),
    [\\]-continued lines, [#] comments, and [.end].  Latches and hierarchy
    ([.latch], [.subckt], [.gate]) are rejected with a clear error, as the
    mapping flow is purely combinational.

    A parsed model becomes a {!Logic.Network.t}: each [.names] cover turns
    into an OR of ANDs of (possibly negated) fanin literals.  Covers listed
    with output ['0'] are parsed as the complement of the OR of their
    cubes. *)

exception Parse_error of int * string
(** [Parse_error (line, message)]: the input is not acceptable BLIF. *)

val parse_string : string -> Logic.Network.t
(** [parse_string text] parses the first [.model] in [text].
    @raise Parse_error on malformed input. *)

val to_string : Logic.Network.t -> string
(** [to_string n] renders the network as BLIF.  Every gate node becomes a
    [.names] block with the natural cover of its function (AND/OR/NOT
    produce one- or few-cube covers; XOR produces its full minterm cover,
    so very wide XOR nodes should be decomposed first). *)

val to_file : Logic.Network.t -> string -> unit
(** [to_file n path] writes {!to_string} to [path]. *)

val roundtrip_check : Logic.Network.t -> bool
(** [roundtrip_check n] writes and re-parses [n] and verifies random
    simulation equivalence; used by the test-suite. *)

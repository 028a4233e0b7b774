(** Convenience layer for constructing networks.

    A thin expression DSL over {!Network}: wires are node identifiers,
    combinators perform light on-the-fly simplification (constant folding,
    single-fanin collapse, double-negation removal) and hash-consing so
    that generator code can be written naturally without bloating the
    netlist.  All benchmark generators in [lib/gen] are written against
    this interface. *)

type t
(** A network under construction. *)

type wire = int
(** A wire is the identifier of the node that drives it. *)

val create : ?name:string -> ?size:int -> unit -> t
(** [create ~name ()] starts an empty network.  [size] (default 256) is
    the number of gates expected, which sizes the hash-consing table; it
    grows past that as needed. *)

val network : t -> Network.t
(** [network b] is the underlying network (shared, not copied). *)

val input : t -> string -> wire
(** [input b name] creates a named primary input. *)

val inputs : t -> string -> int -> wire array
(** [inputs b prefix k] creates [k] inputs named [prefix0 .. prefix<k-1>]. *)

val const : t -> bool -> wire
(** [const b v] is the constant wire [v]. *)

val not_ : t -> wire -> wire
(** Logical negation. *)

val and_ : t -> wire list -> wire
(** n-ary conjunction ([and_ b [] ] is constant 1). *)

val or_ : t -> wire list -> wire
(** n-ary disjunction ([or_ b [] ] is constant 0). *)

val xor_ : t -> wire list -> wire
(** n-ary parity ([xor_ b [] ] is constant 0). *)

val and2 : t -> wire -> wire -> wire
val or2 : t -> wire -> wire -> wire
val xor2 : t -> wire -> wire -> wire
val xnor2 : t -> wire -> wire -> wire

val mux : t -> sel:wire -> wire -> wire -> wire
(** [mux b ~sel a0 a1] selects [a0] when [sel] is 0 and [a1] when 1. *)

val ite : t -> wire -> wire -> wire -> wire
(** [ite b c t e] is if-then-else, same as [mux ~sel:c e t]. *)

val output : t -> string -> wire -> unit
(** [output b name w] binds primary output [name] to [w]. *)

val outputs : t -> string -> wire array -> unit
(** [outputs b prefix ws] binds [prefix0 .. prefix<k-1>] to [ws]. *)

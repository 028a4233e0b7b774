(** Gate-level Boolean networks.

    A network is a DAG of nodes.  Node identifiers are dense integers
    allocated in creation order, and a node's fanins must already exist when
    the node is created, so the identifier order is always a valid
    topological order.  This invariant is relied on throughout the code
    base: passes iterate [0 .. node_count - 1] for input-to-output order. *)

type func =
  | Input  (** primary input *)
  | Const of bool  (** constant 0 or 1 *)
  | Gate of Gate.t  (** combinational gate *)

type node = {
  id : int;  (** dense identifier; also the topological position *)
  func : func;  (** the node's function *)
  fanins : int array;  (** identifiers of fanin nodes, all [< id] *)
  name : string option;  (** optional net name (e.g. from BLIF) *)
}

type t
(** A mutable network under construction / inspection. *)

val create : ?name:string -> unit -> t
(** [create ~name ()] is an empty network called [name] (default
    ["network"]). *)

val name : t -> string
(** [name n] is the network's name. *)

val node_count : t -> int
(** [node_count n] is the number of nodes (inputs and constants included). *)

val node : t -> int -> node
(** [node n id] is the node with identifier [id].
    @raise Invalid_argument if [id] is out of range. *)

val add_input : ?name:string -> t -> int
(** [add_input n] creates a primary input and returns its identifier. *)

val add_const : t -> bool -> int
(** [add_const n b] creates (or reuses) the constant-[b] node. *)

val const_node : t -> bool -> int
(** [const_node n b] is the constant-[b] node, or [-1] if [n] has none
    yet.  A network has at most one node per constant, so node [id]
    is the constant [b] exactly when [id = const_node n b]. *)

val add_gate : ?name:string -> t -> Gate.t -> int array -> int
(** [add_gate n g fanins] creates a gate node.
    @raise Invalid_argument if a fanin does not exist yet or the arity is
    invalid for [g]. *)

val set_output : t -> string -> int -> unit
(** [set_output n po_name id] declares node [id] to drive primary output
    [po_name].  Declaring the same name twice replaces the binding. *)

val inputs : t -> int array
(** [inputs n] is the identifiers of the primary inputs, in creation
    order. *)

val outputs : t -> (string * int) array
(** [outputs n] is the primary output bindings, in declaration order. *)

val input_name : t -> int -> string
(** [input_name n id] is the name of input [id] (synthesised as ["x<k>"]
    when the input was created anonymously).
    @raise Invalid_argument if [id] is not an input. *)

val fanout_counts : t -> int array
(** [fanout_counts n] is, for each node, the number of gate fanin slots it
    feeds (primary-output bindings are not counted).  Computed fresh on
    every call. *)

val iter_nodes : (node -> unit) -> t -> unit
(** [iter_nodes f n] applies [f] to every node in topological order. *)

val fold_nodes : ('acc -> node -> 'acc) -> 'acc -> t -> 'acc
(** [fold_nodes f init n] folds over the nodes in topological order. *)

val validate : t -> (unit, string) result
(** [validate n] checks structural invariants: fanins precede their node,
    arities are legal, outputs refer to existing nodes, and at least one
    output exists. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt n] prints a human-readable listing of the network. *)

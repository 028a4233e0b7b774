(** Pull-down networks of domino gates.

    A PDN is a series/parallel tree of nMOS transistors between the
    dynamic node (top) and the gate's foot (bottom).  [Series (t, b)]
    places structure [t] above structure [b]; [Parallel (a, b)] connects
    the two structures side by side.  Each [Leaf] is one transistor whose
    gate terminal is driven by a {!signal}: a primary-input literal or the
    output of another domino gate.

    The physical internal nodes of a PDN are exactly its series junctions;
    they are identified by {!path}s (branch directions from the root).
    The parasitic-bipolar bookkeeping in {!Pbe_analysis} designates a
    subset of them as p-discharge points. *)

type signal =
  | S_pi of { input : int; positive : bool }
      (** primary-input literal (negative phase implies an inverter at the
          input boundary) *)
  | S_gate of int  (** output of domino gate [id] in the same circuit *)
  | S_const of bool
      (** a rail tie (Vdd / ground).  Only legal as a primary-output
          driver in {!Circuit.t} — constant nets are folded away before
          mapping, so a constant never gates a PDN transistor;
          {!Circuit.validate} rejects [S_const] inside a gate.  This is
          the documented representation of a constant primary output:
          domino gates cannot evaluate to a constant (the dynamic node
          always precharges high), so the output is tied to the rail
          directly, with no transistors, clock load or PBE exposure. *)

type t =
  | Leaf of signal
  | Series of t * t  (** [Series (top, bottom)] *)
  | Parallel of t * t

type path = int list
(** Identifies a series junction: branch choices from the root (0 = first
    child, 1 = second child) down to the [Series] constructor whose
    top/bottom junction is meant. *)

val width : t -> int
(** [width p] is the maximum number of parallel transistors (the paper's
    [W]). *)

val height : t -> int
(** [height p] is the maximum series chain length (the paper's [H]). *)

val transistors : t -> int
(** [transistors p] is the number of leaves. *)

val signals : t -> signal list
(** [signals p] is every leaf signal, left to right (duplicates kept). *)

val gate_fanins : t -> int list
(** [gate_fanins p] is the de-duplicated, sorted list of [S_gate]
    identifiers appearing in [p]. *)

val has_pi_leaf : t -> bool
(** [has_pi_leaf p] tells whether any leaf is a primary-input literal
    (such gates need an n-clock foot transistor). *)

val series_junctions : t -> path list
(** [series_junctions p] is every series junction path, in pre-order,
    which is ascending [compare] order. *)

val eval : (signal -> bool) -> t -> bool
(** [eval env p] is the steady-state conduction of the PDN: [true] iff an
    all-on path of transistors connects top to bottom. *)

val eval64 : (signal -> int64) -> t -> int64
(** Bit-parallel version of {!eval}. *)

val map_signals : (signal -> signal) -> t -> t
(** [map_signals f p] rewrites every leaf signal. *)

val subtree : t -> path -> t
(** [subtree p path] is the subtree addressed by [path].
    @raise Invalid_argument if the path does not address a node. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt p] prints a compact algebraic rendering, e.g.
    [((a*b)+c)*d]. *)

val to_string : t -> string
(** [to_string p] is {!pp} rendered to a string. *)
